"""The three benchmark workloads: request generation, execution and checks.

Requests are plain JSON-able dicts made from the seed alone, so the same
seed gives the same request list.  ``prepare`` turns a request into the
call-ready operands during set-up; ``execute`` makes the library calls
that are timed; ``check`` compares the output with an oracle from
oracles.py (cli-cold compares stdout digests recorded in
cli_catalogue.json).  Checks run outside the timed region.

Library functions are looked up on their modules at call time, so the
tracing wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import oracles
from common import cli_catalogue, traffic
from logalg import classics, eulermac, numeric, render
from logalg.operators import forward_difference
from logalg.series import LogSeries, OrderTag
from logalg.sheffer import AssociatedRule, GradedSeq

TRAFFIC = traffic()


def spec(workload: str) -> dict:
    return TRAFFIC["workloads"][workload]


def _named(rng: random.Random, names: dict[str, list[str]]) -> str:
    """A sequence: a name with equal shares, then one of its parameters."""
    name = rng.choice(list(names))
    param = rng.choice(names[name])
    return f"{name}:{param}" if param else name


def _key_degree(rng: random.Random, ranking: list[int]) -> int:
    """The skewed key: weight 1/rank over the ranking (Zipf, exponent 1)."""
    return rng.choices(ranking, weights=[1 / rank for rank in range(1, len(ranking) + 1)])[0]


def _rational(rng: random.Random) -> str:
    num = rng.choice([n for n in range(-5, 6) if n])
    return str(Fraction(num, rng.randint(1, 6)))


def random_series(rng: random.Random, order: str, top: int, depth: int, terms: int) -> dict:
    """A LogSeries object (to_obj form) with a nonzero top coefficient."""
    floor = max(top - depth, 0) if order == "zero" else top - depth
    degrees = {top}
    if top > floor:
        degrees |= {rng.randint(floor, top - 1) for _ in range(terms - 1)}
    return {
        "order": order,
        "floor": floor,
        "coeffs": [[d, _rational(rng)] for d in sorted(degrees, reverse=True)],
    }


# -- request generation -----------------------------------------------


def cli_decks(seed: int):
    """The endless seeded cli-cold deck stream.  Every deck has the same
    number of requests for every subcommand, spread evenly over its
    strata, one variant each, shuffled: every deck has the same cost
    composition, the seed picks flags, operands and order.  Each deck
    draws afresh, so a run samples the variants widely and its tail does
    not rest on the few heavy variants one deck happens to hold."""
    rng = random.Random(f"cli-cold:{seed}")
    per = spec("cli-cold")["requests_per_subcommand"]
    by_sub: dict[str, list[dict]] = {}
    for stratum in cli_catalogue():
        by_sub.setdefault(stratum["stratum"].partition(".")[0], []).append(stratum)
    for strata in by_sub.values():
        if per % len(strata):
            raise ValueError(f"{len(strata)} strata do not divide {per} requests")
    while True:
        deck = []
        for strata in by_sub.values():
            for stratum in strata * (per // len(strata)):
                deck.append(dict(rng.choice(stratum["variants"]), kind="cli", stratum=stratum["stratum"]))
        rng.shuffle(deck)
        yield deck


def _session_request(rng: random.Random, s: dict, kind: str) -> dict:
    """One request of a class by the neutral rule in traffic.json: equal
    shares over names and parameters, uniform sizes, and a skew only on
    the key degree."""
    cls = s["classes"][kind]
    depth = rng.randint(*cls["depth"])
    order = rng.choice(s["order"])
    a = _key_degree(rng, s["key_degrees"])
    if kind in ("table_json", "table_latex"):
        a_from = a - s["table_rows"] // 2
        return {"kind": "table", "seq": _named(rng, cls["sequences"]), "order": order,
                "a_from": a_from, "a_to": a_from + s["table_rows"] - 1, "depth": depth,
                "format": kind.partition("_")[2]}
    if kind == "member":
        return {"kind": kind, "seq": _named(rng, cls["sequences"]), "order": order, "a": a, "depth": depth}
    if kind == "shift":
        return {"kind": kind, "order": order, "a": a, "depth": depth, "z": rng.choice(cls["z"])}
    if kind == "taylor":
        return {"kind": kind, "seq": _named(rng, cls["sequences"]),
                "series": random_series(rng, "generic", rng.randint(1, 3), depth, rng.randint(1, 3)),
                "a_min": rng.randint(-2, 0)}
    return {"kind": kind, "series": random_series(rng, order, rng.randint(1, 3), depth, rng.randint(1, 4)),
            "level": 0 if order == "zero" else 1, "x": rng.choice([2.0, 3.0, 5.0, 7.5, 10.0, 20.0])}


def session_stream(seed: int):
    """The endless seeded session-warm request stream.  The classes come in
    shuffled blocks of one request each, so every stretch of the stream
    holds them in equal shares: the median latency falls where the cheap
    and the dear classes meet, and drawing classes independently would let
    the share of each, and with it the median, wander from seed to seed."""
    rng = random.Random(f"session-warm:{seed}")
    s = spec("session-warm")
    kinds = list(s["classes"])
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            yield _session_request(rng, s, kind)


def verify_deck(seed: int) -> list[dict]:
    """The verify-deep deck: every size is fixed by traffic.json, the seed
    draws the em_apply coefficients and the order."""
    rng = random.Random(f"verify-deep:{seed}")
    deck = []
    for item in spec("verify-deep")["deck"]:
        req = dict(item)
        if req["kind"] == "em_apply":
            degrees = req.pop("degrees")
            req["series"] = {"order": "generic", "floor": degrees[0] - req["depth"],
                             "coeffs": [[d, _rational(rng)] for d in degrees]}
        deck.append(req)
    rng.shuffle(deck)
    return deck


# -- execution ---------------------------------------------------------


def named_seq(seq: str) -> GradedSeq:
    """A fresh GradedSeq, as a user builds one: 'bernoulli', 'hermite:<sigma>'
    or 'laguerre:<b>' (the Sheffer route)."""
    name, _, param = seq.partition(":")
    if name == "bernoulli":
        return classics.bernoulli_seq()
    if name == "hermite":
        return classics.hermite_seq(Fraction(param))
    if name == "laguerre":
        return classics.laguerre_sheffer_seq(Fraction(param))
    raise ValueError(f"unknown sequence {seq!r}")


def prepare(req: dict) -> dict:
    """Call-ready operands: LogSeries objects are built during set-up."""
    ready = dict(req)
    if "series" in req:
        ready["series"] = LogSeries.from_obj(req["series"])
    if "order" in req:
        ready["order"] = OrderTag(req["order"])
    return ready


def _table_params(seq: str) -> dict:
    name, _, param = seq.partition(":")
    if name == "hermite":
        return {"sigma": Fraction(param)}
    if name == "laguerre":
        return {"grade": Fraction(param)}
    return {}


def execute(r: dict):
    """Run one prepared in-process request; returns its output."""
    kind = r["kind"]
    if kind == "table":
        name = r["seq"].partition(":")[0]
        table = classics.emit_table(name, r["a_from"], r["a_to"], r["depth"], order=r["order"],
                                    **_table_params(r["seq"]))
        return table, render.table_to_latex(table) if r["format"] == "latex" else table.to_json()
    if kind == "member":
        a, floor = r["a"], r["a"] - r["depth"]
        name, _, param = r["seq"].partition(":")
        if name == "bernoulli":
            return classics.bernoulli_member(r["order"], a, floor)
        if name == "hermite":
            return classics.hermite_member(r["order"], a, floor, Fraction(param))
        return classics.laguerre_member(r["order"], a, Fraction(param), floor)
    if kind == "taylor":
        return named_seq(r["seq"]).taylor_coeffs(r["series"], r["a_min"])
    if kind == "shift":
        member = classics.bernoulli_member(r["order"], r["a"], r["a"] - r["depth"])
        return member.shift(Fraction(r["z"]))
    if kind == "eval":
        return numeric.eval_series(r["series"], r["level"], r["x"])
    # verify-deep
    if kind == "assoc_genfun":
        return GradedSeq(AssociatedRule(forward_difference)).genfun_check_order_zero(r["K"])
    if kind == "appell_genfun":
        return named_seq(r["seq"]).genfun_check_order_zero(r["K"])
    if kind == "laguerre_sheffer_genfun":
        return named_seq("laguerre:" + r["b"]).genfun_check_order_zero(r["K"])
    if kind == "laguerre_genfun":
        return classics.laguerre_genfun_check(r["b"], r["K"])
    if kind == "sheffer_identities":
        seq, d, z = named_seq("laguerre:" + r["b"]), r["depth"], Fraction(r["z"])
        g = OrderTag.GENERIC
        return all(
            seq.check_lowering(g, a, a - d) and seq.check_binomial_shift(g, a, z, a - d)
            for a in range(-d // 2, d // 2 + 1)
        )
    if kind in ("em_residual", "em_residual_corrupt"):
        return eulermac.em_operator_residual(r["K"], omit_linear_term=kind == "em_residual_corrupt")
    if kind == "em_apply":
        return eulermac.em_apply(r["series"], r["n"], r["depth"])
    if kind == "biorthogonality":
        seq = named_seq(r["seq"])
        return all(seq.check_biorthogonality(a, b) for a in range(-3, 6) for b in range(6))
    if kind == "lambda_sum":
        return eulermac.lambda_sum_closed_form(r["order"], r["a"], r["k"], r["a"] - r["depth"])
    raise ValueError(f"unknown request kind {kind!r}")


# -- checks ------------------------------------------------------------


def member_keys(req: dict) -> list[tuple]:
    """GradedSeq member keys (sequence, order, degree, floor) a session
    request reads; used to measure how often keys repeat."""
    kind = req["kind"]
    if kind == "table" and req["seq"] != "harmonic":
        return [(req["seq"], req["order"], a, a - req["depth"]) for a in range(req["a_from"], req["a_to"] + 1)]
    if kind == "member":
        return [(req["seq"], req["order"], req["a"], req["a"] - req["depth"])]
    if kind == "shift":
        return [("bernoulli", req["order"], req["a"], req["a"] - req["depth"])]
    return []


_SYMBOL = {"bernoulli": "B", "hermite": "H", "laguerre": "L", "harmonic": "\\lambda"}


def _latex_ok(table, text: str) -> bool:
    """Array frame, one labelled line per row, one term per nonzero coefficient."""
    lines = text.split("\n")
    if lines[0] != "\\begin{array}{rcl}" or lines[-1] != "\\end{array}" or len(lines) != len(table.rows) + 2:
        return False
    for (a, s), line in zip(table.rows, lines[1:-1]):
        label, sep, rhs = line.partition(" &=& ")
        if not (sep and label.startswith(f"{_SYMBOL[table.name]}_{{{a}}}^") and rhs.endswith(" \\\\")):
            return False
        if rhs.count("\\lambda_{") != len(s.coeffs) or s.is_zero() != rhs.startswith("0 "):
            return False
    return True


def check(r: dict, out) -> bool:
    """True when a request's output is correct."""
    o = oracles
    kind = r["kind"]
    if kind == "cli":
        stdout, code, stderr = out
        return (code == r["exit"] and hashlib.sha256(stdout).hexdigest() == r["sha256"]
                and b"Traceback" not in stderr)
    if kind == "table":
        table, text = out
        if [a for a, _ in table.rows] != list(range(r["a_from"], r["a_to"] + 1)) or table.depth != r["depth"]:
            return False
        if r["format"] == "latex" and not _latex_ok(table, text):
            return False
        return all(
            o.same_series(s, r["order"], a - r["depth"],
                          o.member(r["seq"], r["order"], a, a - r["depth"], closed_laguerre=True))
            for a, s in table.rows
        )
    if kind == "member":
        floor = r["a"] - r["depth"]
        expected = o.member(r["seq"], r["order"], r["a"], floor, closed_laguerre=True)
        return o.same_series(out, r["order"], floor, expected)
    if kind == "taylor":
        p, a_min = r["series"], r["a_min"]
        if any(not a_min <= a <= p.top_degree() for a in out):
            return False
        rebuilt: dict[int, Fraction] = {}
        for a, c in out.items():
            for d, v in o.member(r["seq"], OrderTag.GENERIC, a, a_min).items():
                rebuilt[d] = rebuilt.get(d, Fraction(0)) + c * v
        return ({d: c for d, c in rebuilt.items() if c != 0}
                == {d: c for d, c in p.coeffs.items() if d >= a_min})
    if kind == "shift":
        floor = r["a"] - r["depth"]
        member = o.bernoulli_member(r["order"], r["a"], floor)
        return o.same_series(out, r["order"], floor, o.shift(r["order"], member, floor, Fraction(r["z"])))
    if kind == "eval":
        value, scale = o.series_value(dict(r["series"].coeffs), r["level"], r["x"])
        return abs(out[0] - value) <= 1e-12 * max(scale, 1.0)
    if kind == "em_residual":
        return out.symbolic_ok and out.residual_lead is None
    if kind == "em_residual_corrupt":
        return not out.symbolic_ok and out.residual_lead == 1
    if kind == "em_apply":
        return out.is_zero()
    if kind == "lambda_sum":
        direct, closed = out
        return direct.floor == closed.floor and dict(direct.coeffs) == dict(closed.coeffs)
    return out is True
