"""Every preset, run through its target command with each top-level key
dropped and with each top-level value replaced by 7 and by [], ends in an
exit code and never in an exception out of `main`."""

import json

import pytest

from lambdaforest import presets
from lambdaforest.cli import main

EXIT_CODES = {0, 2, 3, 64, 65}

# argv around the --input of each preset's target command
TARGETS = {
    "schottky-qt": ["bt", "certify"],
    "z2-diagonal": ["bt", "length", "--word", "uv'"],
    "unipotent-fail": ["bt", "certify"],
    "centralizer-extension-gog": ["gog", "structure"],
    "n3-surface-gog": ["gog", "structure"],
    "z-to-z2-sequence": ["marked", "profile"],
    "square-cycle": ["validate-tree"],
    "tripod": ["tree", "distance", "--x", "p", "--y", "q"],
}


def mutations(doc):
    for key in doc:
        yield f"drop {key}", {k: v for k, v in doc.items() if k != key}
        for bad in (7, []):
            yield f"{key} = {bad!r}", {**doc, key: bad}


def test_every_preset_has_a_target():
    assert sorted(TARGETS) == presets.names()


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_top_level_mutations_end_in_an_exit_code(tmp_path, capsys, name):
    argv = TARGETS[name]
    path = tmp_path / "doc.json"
    bad = []
    for label, doc in mutations(presets.emit(name)):
        path.write_text(json.dumps(doc))
        try:
            rc = main(argv[:2] + ["--input", str(path)] + argv[2:])
        except Exception as exc:  # an escaped exception is the fault this test looks for
            rc = f"{type(exc).__name__}: {exc}"
        if rc not in EXIT_CODES:
            bad.append((label, rc))
    capsys.readouterr()
    assert bad == []
