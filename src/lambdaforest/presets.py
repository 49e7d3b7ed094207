"""Shipped input documents: small, fully worked examples for every checker.

Every preset is a literal JSON document carrying a schema tag, the target
subcommand, and a provenance block explaining how the data was produced;
emitting one loads nothing beyond this module.
"""

from __future__ import annotations

SCHEMA = "lambda-forest/1"

# exponent for the diagonal Schottky generator; locked by running the ball
# certifier at N = 6 before release (see the certification test), and
# spelled out at this value in schottky_qt
SCHOTTKY_K = 1


def _schottky_generators(k: int = SCHOTTKY_K) -> dict:
    """Generators a, b as bruhat.Mat2 over Q(t): the schottky-qt preset's at
    k = SCHOTTKY_K."""
    from .bruhat import Mat2, RatFunc

    one = RatFunc.const(1)
    zero = RatFunc.const(0)
    a = Mat2(RatFunc.t(k), zero, zero, RatFunc.t(-k))
    c = Mat2(one, one, one, RatFunc.const(2))
    b = c * a * c.inverse()
    return {"a": a, "b": b}


def schottky_qt() -> dict:
    return {
        "schema": SCHEMA,
        "kind": "matrix-group",
        "target": "bt certify",
        "field": "Qt",
        "generators": {
            "a": [[{"t^1": "1"}, {"1": "0"}], [{"1": "0"}, {"t^-1": "1"}]],
            "b": [[{"t^-1": "-1", "t^1": "2"}, {"t^-1": "1", "t^1": "-1"}],
                  [{"t^-1": "-2", "t^1": "2"}, {"t^-1": "2", "t^1": "-1"}]],
        },
        "ball": 6,
        "provenance": {
            "construction": "a = diag(t^1, t^-1); b = c a c^-1 with c = [[1,1],[1,2]]",
            "note": "exponent locked by the N = 6 ball certifier",
        },
    }


def z2_diagonal() -> dict:
    return {
        "schema": SCHEMA,
        "kind": "matrix-group",
        "target": "bt length",
        "field": "Qst",
        "generators": {
            "u": [[{"s^1": "1"}, {"1": "0"}], [{"1": "0"}, {"s^-1": "1"}]],
            "v": [[{"t^1": "1"}, {"1": "0"}], [{"1": "0"}, {"t^-1": "1"}]],
        },
        "provenance": {
            "construction": "u = diag(s, s^-1), v = diag(t, t^-1): a Z^2 of "
            "commuting hyperbolics with rank-2 lengths",
        },
    }


def unipotent_fail() -> dict:
    return {
        "schema": SCHEMA,
        "kind": "matrix-group",
        "target": "bt certify",
        "field": "Qt",
        "generators": {"u": [[{"1": "1"}, {"1": "1"}], [{"1": "0"}, {"1": "1"}]]},
        "ball": 1,
        "provenance": {
            "construction": "single unipotent [[1,1],[0,1]]: nontrivial, "
            "translation length 0, certification fails at N = 1",
        },
    }


def centralizer_extension_gog() -> dict:
    return {
        "schema": SCHEMA,
        "kind": "graph-of-groups",
        "target": "gog structure",
        "vertices": [
            {"id": "F", "type": "infinitesimal", "group": {"kind": "free", "letters": ["x", "y"]}},
            {
                "id": "A",
                "type": "abelian",
                "group": {"kind": "cyclic-by-sum", "n_letter": "n", "extra_letters": ["z"]},
            },
        ],
        "edges": [{"u": "F", "v": "A", "image_u": "xy", "image_v": "n"}],
        "ambient": {"generators": ["x", "y", "z"], "relators": ["xyzy'x'z'"]},
        "max_abelian": [["A", 2]],
        "provenance": {
            "construction": "free group on x, y with the centralizer of w = xy "
            "extended by one Z factor z; ambient relator is the commutator [xy, z]",
        },
    }


def n3_surface_gog() -> dict:
    return {
        "schema": SCHEMA,
        "kind": "graph-of-groups",
        "target": "gog structure",
        "vertices": [
            {
                "id": "S",
                "type": "surface",
                "group": {
                    "kind": "surface-with-boundary",
                    "letters": ["a", "b", "c"],
                    "boundaries": [],
                    "closed_relator": "aabbcc",
                },
            }
        ],
        "edges": [],
        "ambient": {"generators": ["a", "b", "c"], "relators": ["aabbcc"]},
        "max_abelian": [],
        "provenance": {
            "construction": "single closed-surface vertex a^2 b^2 c^2, no edges",
        },
    }


def z_to_z2_sequence() -> dict:
    return {
        "schema": SCHEMA,
        "kind": "marked-profile",
        "target": "marked profile",
        "family": {"kind": "z-marked"},
        "index_budget": 8,
        "r_max": 5,
        "marked_target": {
            "group": {"kind": "free-abelian", "letters": ["p", "q"]},
            "marking": ["p", "q"],
            "letters": ["a", "b"],
        },
        "provenance": {
            "construction": "family i -> (Z, (1, i)) converging to (Z^2, standard); "
            "least agreeing index at radius R is R",
        },
    }


def square_cycle() -> dict:
    one = ["1"]
    two = ["2"]
    zero = ["0"]
    return {
        "schema": SCHEMA,
        "kind": "metric",
        "target": "validate-tree",
        "rank": 1,
        "labels": ["p", "q", "r", "s"],
        "dist": [
            [zero, one, two, one],
            [one, zero, one, two],
            [two, one, zero, one],
            [one, two, one, zero],
        ],
        "provenance": {
            "construction": "path metric of a 4-cycle with unit edges: "
            "violates the four-point condition on the full quadruple",
        },
    }


def tripod() -> dict:
    return {
        "schema": SCHEMA,
        "kind": "tree",
        "target": "tree",
        "rank": 1,
        "vertices": ["o", "p", "q", "r"],
        "edges": [
            {"u": "o", "v": "p", "len": ["1"]},
            {"u": "o", "v": "q", "len": ["1"]},
            {"u": "o", "v": "r", "len": ["1"]},
        ],
        "provenance": {"construction": "three unit arms at a common center"},
    }


CATALOG = {
    "schottky-qt": schottky_qt,
    "z2-diagonal": z2_diagonal,
    "unipotent-fail": unipotent_fail,
    "centralizer-extension-gog": centralizer_extension_gog,
    "n3-surface-gog": n3_surface_gog,
    "z-to-z2-sequence": z_to_z2_sequence,
    "square-cycle": square_cycle,
    "tripod": tripod,
}


def names() -> list[str]:
    return sorted(CATALOG)


def emit(name: str) -> dict:
    return CATALOG[name]()
