"""Differential check of the expression parser against a recorded golden file.

``fixtures/sexpr_golden.json`` holds seeded random expression texts, plus
a hand-written list that reaches every operator head and every parse
error, and for each text what the five ``parse_*`` entry points returned
in a context that declares every variable kind and every table kind: the
tree's repr and its ``unparse``, or the exception's class and message.
The random texts are mostly well formed, with a few mutations (a wrong
arity, a wrong family, a stray token) so that the error paths and their
order are pinned too.

Regenerate it (only when the grammar changes on purpose) with::

    PYTHONPATH=src python tests/test_sexpr_golden.py
"""

from __future__ import annotations

import functools
import json
import re
from pathlib import Path
from random import Random

import pytest

from dpsearch import expressions as ex
from dpsearch import sexpr
from dpsearch.model import StateMetadata, Variable

GOLDEN = Path(__file__).parent / "fixtures" / "sexpr_golden.json"
RANDOM_TEXTS = 900
MAX_DEPTH = 3
NOISE = 0.07  # chance that a generated node is mutated


def context() -> sexpr.ParseContext:
    """Every variable kind, every table kind, scalar and indexed tables,
    set values over two universes, and one bound parameter."""
    objects = {"item": 4, "node": 3}
    metadata = StateMetadata(
        objects,
        [
            Variable("e", "element", "item"),
            Variable("U", "set", "item"),
            Variable("V", "set", "node"),
            Variable("n", "integer"),
            Variable("x", "continuous", preference="less"),
        ],
    )

    def table(name, kind, shape, default, universe=None):
        return ex.Table(name, kind, shape, {}, default, universe)

    tables = ex.TableRegistry(
        [
            table("k", "integer", (), 2),
            table("d", "integer", (4,), 1),
            table("c", "integer", (4, 4), 0),
            table("w", "continuous", (4,), 0.5),
            table("nxt", "element", (4,), 0),
            table("flag", "boolean", (), True),
            table("ok", "boolean", (4,), False),
            table("S0", "set", (), 0, 4),
            table("adj", "set", (4,), 0, 4),
            table("far", "set", (4,), 0, 3),
        ]
    )
    return sexpr.ParseContext(metadata, tables, {"p": 1})


ENTRY_POINTS = {
    "set": sexpr.parse_set,
    "numeric": sexpr.parse_numeric,
    "condition": sexpr.parse_condition,
    "effect": lambda text, ctx: sexpr.parse_effect(text, ctx, "element"),
    "cost": sexpr.parse_cost,
}

# -- text generation -------------------------------------------------------

ATOMS = {
    "element": ["e", "p", "0", "3", "k", "nxt", "(nxt e)", "(nxt 2)"],
    "set": ["U", "V", "S0", "(adj e)", "(far 1)", "(set-of 4 0 2)", "(set-of 3)"],
    "numeric": [
        "n", "x", "e", "p", "k", "d", "2.5", "1/3", "-4", "7",
        "(d e)", "(c e p)", "(w 1)", "(nxt e)",
    ],
    "condition": ["true", "false", "flag", "(ok e)", "(ok p)"],
}

# head -> argument families; "..." repeats the previous family
FORMS = {
    "element": {
        "if": ("condition", "element", "element"),
        **{op: ("element", "element") for op in ("+", "-", "*", "/", "%")},
    },
    "set": {
        "add": ("element", "set"),
        "remove": ("element", "set"),
        "union": ("set", "set"),
        "intersection": ("set", "set"),
        "difference": ("set", "set"),
        "complement": ("set",),
    },
    "numeric": {
        "if": ("condition", "numeric", "numeric"),
        "+": ("numeric", "numeric", "..."),
        "*": ("numeric", "numeric", "..."),
        "-": ("numeric", "numeric"),
        "/": ("numeric", "numeric"),
        "max": ("numeric", "numeric", "..."),
        "min": ("numeric", "numeric", "..."),
        "abs": ("numeric",),
        "floor": ("numeric",),
        "ceil": ("numeric",),
        "card": ("set",),
        "sum": ("table", "set"),
        "product": ("table", "set"),
    },
    "condition": {
        **{op: ("numeric", "numeric") for op in ("=", "!=", "<", "<=", ">", ">=")},
        "is_in": ("element", "set"),
        "is_subset": ("set", "set"),
        "is_empty": ("set",),
        "not": ("condition",),
        "and": ("condition", "condition", "..."),
        "or": ("condition", "condition", "..."),
    },
}

TABLE_TARGETS = ["d", "w", "nxt", "(c e)", "(c 1)", "ok", "k", "(d e)", "3"]
STRAY = ["(", ")", "()", "ghost", "cost", "nan", "-2", "1.5", "2/4", "set-of", "true"]


def generate(rng: Random, family: str, depth: int) -> str:
    if rng.random() < NOISE:
        mutation = rng.randrange(3)
        if mutation == 0:
            return rng.choice(STRAY)
        if mutation == 1:
            family = rng.choice(sorted(FORMS))
        else:
            return rng.choice(sorted({h for forms in FORMS.values() for h in forms}))
    if family == "table":
        return rng.choice(TABLE_TARGETS)
    if depth >= MAX_DEPTH or rng.random() < 0.35:
        return rng.choice(ATOMS[family])
    head = rng.choice(sorted(FORMS[family]))
    families = list(FORMS[family][head])
    if families[-1] == "...":
        families[-1:] = [families[-2]] * rng.randrange(0, 3)
    if rng.random() < NOISE:
        families = families[:-1] if families and rng.random() < 0.5 else families + [family]
    args = [generate(rng, f, depth + 1) for f in families]
    return f"({' '.join([head, *args])})"


def random_texts() -> list[str]:
    rng = Random("sexpr-golden")
    texts = []
    for _ in range(RANDOM_TEXTS):
        family = rng.choice(sorted(FORMS))
        text = generate(rng, family, 0)
        if family == "numeric" and rng.random() < 0.3:
            text = f"({rng.choice(['+', 'max', '*'])} {text} cost)"
        texts.append(text)
    return texts


# Texts written out to reach every head and every message at least once.
EDGE_TEXTS = [
    "", "   ", "(", ")", "(+ 1 2", "(+ 1 2))", "1 2", "()", "(())", "((+) 1)",
    "e", "U", "n", "x", "p", "k", "d", "flag", "S0", "ghost", "true", "false",
    "-1", "0", "2.5", "1/3", "-1/3", "nan", "inf",
    "cost", "(+ 1 cost)", "(max 1 cost)", "(+ cost 1)", "(* 1 cost)", "(+ (+ 1 cost) cost)",
    "(+ 1 2 cost)", "(max (d e) cost)", "(+ (if (< n 1) cost 0) cost)",
    "(if true 1 2)", "(if (< n 1) e 2)", "(if flag 1)",
    "(+ e 1)", "(- e 1)", "(* e 2)", "(/ e 2)", "(% e 2)", "(% 5 2)", "(+ 1)", "(+ 1 2 3 4)",
    "(* 1 2 3)", "(- 1 2 3)", "(max 1 2)", "(min 1 2 3)", "(max 1)", "(abs -3)",
    "(floor 1/2)", "(ceil (/ n 2))", "(card U)", "(card e)", "(abs 1 2)",
    "(sum d U)", "(product w U)", "(max d U)", "(min nxt (add 1 U))", "(sum (c e) U)",
    "(max (c 1) (set-of 4 1 2))", "(min d (adj e))", "(sum 3 U)", "(sum ok U)",
    "(sum d)", "(sum (3 1) U)", "(max k U)", "(sum (c ghost) U)", "(max d ghost)",
    "(max (ok 1) U)", "(product d U V)",
    "(add e U)", "(remove 1 U)", "(union U S0)", "(intersection U (adj e))",
    "(difference U V)", "(union U V)", "(complement V)", "(complement U U)",
    "(set-of 4 0 1 3)", "(set-of 4 4)", "(set-of 4 -1)", "(set-of 4 e)", "(set-of)",
    "(set-of x)", "(set-of -1)", "(set-of 0)", "(frob U)",
    "(= n 1)", "(!= x 2.5)", "(< e 3)", "(<= n k)", "(> (d e) 0)", "(>= (w e) x)",
    "(= n)", "(is_in e U)", "(is_in 5 V)", "(is_in U U)", "(is_subset U S0)",
    "(is_subset U V)", "(is_empty (far e))", "(not flag)", "(not (ok 2))",
    "(and true false)", "(or flag (ok e) (= n 1))", "(and true)", "(or)",
    "(ok e)", "(ok)", "(flag)", "(nxt e)", "(nxt)", "(c 1 2)", "(c e)", "(adj 2)",
    "(d (nxt e))", "(d U)", "(w n)", "(k)", "(S0)", "(U)", "(e 1)", "(1 2)",
    "(sum)", "(set-of 3 1/1)", "(+ e U)", "(if 1 2 3)", "(is_empty n)",
]

# -- recording ---------------------------------------------------------------


def outcome(parse, text: str, ctx) -> dict:
    """The tree's repr and text, or the exception's class and message."""
    try:
        result = parse(text, ctx)
    except Exception as err:  # recorded, and compared by class and message
        return {"error": type(err).__name__, "message": str(err)}
    if isinstance(result, tuple):  # parse_cost: (operator, weight)
        return {"tree": repr(result), "text": sexpr.unparse_cost(*result)}
    return {"tree": repr(result), "text": sexpr.unparse(result)}


def observe(text: str, ctx) -> dict:
    return {name: outcome(parse, text, ctx) for name, parse in ENTRY_POINTS.items()}


def texts() -> list[str]:
    return EDGE_TEXTS + random_texts()


def record() -> list[dict]:
    ctx = context()
    return [{"text": text, **observe(text, ctx)} for text in texts()]


@functools.cache
def _golden() -> tuple:
    return tuple(json.loads(GOLDEN.read_text()))


def test_texts_match_fixture():
    assert [r["text"] for r in _golden()] == texts()


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_parse_matches_golden(entry):
    ctx = context()
    parse = ENTRY_POINTS[entry]
    for record in _golden():
        assert outcome(parse, record["text"], ctx) == record[entry], record["text"]


HEADS = sorted({h for forms in FORMS.values() for h in forms} | {"set-of"})

# Every message the parser raises, as a pattern over the recorded messages.
MESSAGES = [
    r"empty expression text",
    r"trailing tokens in ",
    r"unbalanced parentheses",
    r"unexpected '\)'",
    r"negative element literal ",
    r"expected an element expression, got ",
    r"'[^']+' is not an element variable",
    r"unknown symbol '\w+' in element context",
    r"unknown element operator ",
    r"unknown symbol '\w+' in set context",
    r"expected a set expression, got ",
    r"\(set-of universe members\.\.\.\) needs a universe",
    r"bad set literal member ",
    r"negative set-of universe -\d+",
    r"\(\w+ \.\.\.\) mixes set universes",
    r"unknown set operator ",
    r"expected a numeric expression, got ",
    r"NaN is not a numeric constant: ",
    r"'cost' is only legal inside a transition cost expression",
    r"'\w+' is not usable in numeric context",
    r"unknown symbol '\w+' in numeric context",
    r"\(\S+ \.\.\.\) needs at least two operands",
    r"unknown numeric operator ",
    r"\(\w+ \.\.\.\) needs a table to reduce",
    r"'\w+' is not a numeric table",
    r"expected a condition, got symbol ",
    r"expected a condition, got (?!symbol)",
    r"unknown condition operator ",
    r"\(\S+ \.\.\.\) takes \d arguments, got \d",
    r"cost term must combine a weight with 'cost'",
]


def test_fixture_reaches_every_head_and_message():
    records = _golden()
    outcomes = [r[entry] for r in records for entry in ENTRY_POINTS]
    printed = " ".join(o["text"] for o in outcomes if "text" in o)
    for head in HEADS:
        assert f"({head} " in printed, head
    messages = [o["message"] for o in outcomes if "message" in o]
    for pattern in MESSAGES:
        assert any(re.match(pattern, m) for m in messages), pattern
    parsed = sum(any("tree" in r[entry] for entry in ENTRY_POINTS) for r in records)
    assert len(records) >= 1000 and parsed >= len(records) // 4


def test_unparse_rejects_a_non_expression():
    with pytest.raises(TypeError, match="cannot unparse"):
        sexpr.unparse(object())


if __name__ == "__main__":
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in record()]
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {GOLDEN}")
