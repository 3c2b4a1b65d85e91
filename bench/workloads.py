"""Benchmark workloads: seeded CLI items and the known answer each must give.

An item is one call of `flatcert.cli.main(argv)`.  Every item's inputs are
derived from the benchmark seed alone; the program sees only the argv and,
for `rank-referee`, the ideal file the argv names.  `check_report` compares a
report with the answer the mathematics fixes in advance, so a fast wrong
answer counts as a failure, never as a verdict.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path
from random import Random

from flatcert.groebner import Ideal
from flatcert.polyring import polynomial_text
from flatcert.quadfam import ChartPoint, evaluate_family_at, family_ideal_J

POOL = 64  # distinct inputs per run; the timed loop cycles through them

# Known answers.  chi_graph(n) is the flatness claim (4t^2+4t+1 for n = 3,
# the warm-up); every xi (2,2) curve has Hilbert polynomial 8t (the Koszul
# count, not the xi closed form 4t, which is the honest AC8 gap); every
# n = 2 fiber has 4t+1.
CHI_GRAPH = {3: "4t^2+4t+1", 4: "(8/3)t^3+6t^2+(13/3)t+1"}
XI_FIBER = "8t"
N2_FIBER = "4t+1"

# |u| entries and |d| entries of a rank-referee chart point.  The rank
# oracle's cost grows with coefficient height, so each point uses these
# fixed heights under a seeded permutation and seeded signs.
U_HEIGHTS = (4, 6, 8)
D_HEIGHTS = (3, 7)


@dataclass(frozen=True)
class Item:
    """One CLI call.  `kind` and `answer` name what its report must say."""

    key: str          # identifies the input; equal keys must give equal reports
    argv: tuple[str, ...]
    kind: str         # flat-pass | flat-control | xi | rank
    answer: str = ""  # the Hilbert polynomial every fit must render as


# rank-referee alternates nondegenerate and degenerate fibers, whose costs
# differ; its timed loop ends on whole pairs, so that the parity of the item
# count does not move the median from one kind to the other.
BLOCK = {"flatness-gb": 1, "xi-curves": 1, "rank-referee": 2}

# Layers a traced run of each workload must see called at least once.
REQUIRED_SPANS = {
    "flatness-gb": ("cli", "quadfam.certificate", "quadfam.fiber_eval", "polyring.substitute",
                    "groebner.buchberger", "groebner.dimension", "hilbert.count",
                    "hilbert.interp", "util.parallel_map"),
    "xi-curves": ("cli", "flagcut.xi_trials", "groebner.buchberger", "groebner.dimension",
                  "hilbert.count", "hilbert.interp"),
    "rank-referee": ("cli", "polyring.parse", "groebner.buchberger", "hilbert.count",
                     "hilbert.rank_build", "util.rank", "hilbert.interp"),
}


def _seeds(name: str, seed: int | str) -> Random:
    # a str seed hashes with SHA-512, so it does not depend on PYTHONHASHSEED
    return Random(f"{name}:{seed}")


def rank_chart_point(rng: Random, degenerate: bool) -> ChartPoint:
    u = [h * rng.choice((-1, 1)) for h in rng.sample(U_HEIGHTS, len(U_HEIGHTS))]
    d = [h * rng.choice((-1, 1)) for h in rng.sample(D_HEIGHTS, len(D_HEIGHTS))]
    if degenerate:
        d[rng.randrange(len(d))] = 0
    return ChartPoint.from_strict_lower([[u[0]], [u[1], u[2]]], d)


def write_fiber_file(path: Path, family: Ideal, point: ChartPoint) -> None:
    fiber = evaluate_family_at(family, point)
    lines = [f"# fiber of the family J at {point.label()}", f"n {point.n}"]
    lines += [polynomial_text(g) for g in fiber.generators]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_items(name: str, seed: int, workdir: Path, workers: int) -> tuple[Item, list[Item]]:
    """The warm-up item and POOL timed items of a workload at a seed.

    The warm-up is a small item on the same code path, the same at every
    seed.  rank-referee writes its ideal files into `workdir`.
    """
    rng = _seeds(name, seed)
    w = str(workers)
    if name == "flatness-gb":
        warmup = Item(f"{name}:warm-up", ("verify-flatness", "--n", "3", "--t-max", "6",
                                          "--seed", "0", "--workers", w), "flat-pass", CHI_GRAPH[3])
        items = []
        for index in range(POOL):
            argv = ("verify-flatness", "--n", "4", "--t-max", "6",
                    "--seed", str(rng.getrandbits(31)), "--workers", w)
            if index % 5 == 4:
                items.append(Item(f"{name}:{seed}:{index}",
                                  (*argv, "--corrupt", "drop-generator:1"), "flat-control"))
            else:
                items.append(Item(f"{name}:{seed}:{index}", argv, "flat-pass", CHI_GRAPH[4]))
    elif name == "xi-curves":
        warmup = Item(f"{name}:warm-up", ("xi-trials", "2", "2", "--trials", "1", "--seed", "0",
                                          "--workers", "1"), "xi", XI_FIBER)
        # one trial per item: about a fifth of trials end in a fraction of
        # the usual time, so a median over many one-trial items stays in
        # the bulk, where a median over fewer four-trial items would move
        # with the number of short trials among the few items of a run
        items = [Item(f"{name}:{seed}:{index}",
                      ("xi-trials", "2", "2", "--trials", "1",
                       "--seed", str(rng.getrandbits(31)), "--workers", "1"), "xi", XI_FIBER)
                 for index in range(POOL)]
    elif name == "rank-referee":
        family = family_ideal_J(2)
        workdir.mkdir(parents=True, exist_ok=True)

        def fiber_item(key: str, point: ChartPoint, t_max: int) -> Item:
            path = workdir / f"{key.replace(':', '_')}.ideal"
            write_fiber_file(path, family, point)
            return Item(key, ("hilbert", str(path), "--method", "both", "--t-max", str(t_max),
                              "--workers", "1"), "rank", N2_FIBER)
        warmup = fiber_item(f"{name}:warm-up", rank_chart_point(_seeds(name, "warm-up"), False), 5)
        items = [fiber_item(f"{name}:{seed}:{index}",
                            rank_chart_point(rng, degenerate=index % 2 == 1), 8)
                 for index in range(POOL)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return warmup, items


def _rendered(poly: dict | None) -> str | None:
    return poly.get("rendered") if isinstance(poly, dict) else None


def check_report(item: Item, code: int, report: dict) -> str | None:
    """None when the report gives the item's known answer, else the reason."""
    body = report.get("report")
    if report.get("schema") != 1 or not isinstance(body, dict):
        return "not a schema-1 report"
    if item.kind == "flat-pass":
        if code != 0 or body.get("verdict") != "PASS":
            return f"expected exit 0 and PASS, got {code} and {body.get('verdict')}"
        fibers = body.get("fibers") or []
        if len(fibers) != 4:
            return f"expected 4 fibers, got {len(fibers)}"
        bad = [f.get("index") for f in fibers
               if _rendered(f.get("polynomial")) != item.answer]
        if bad or _rendered(body.get("expected")) != item.answer:
            return f"fibers {bad} differ from chi_graph = {item.answer}"
    elif item.kind == "flat-control":
        if code != 1 or body.get("verdict") != "FAIL":
            return f"negative control: expected exit 1 and FAIL, got {code} and {body.get('verdict')}"
    elif item.kind == "xi":
        records = body.get("records") or []
        trials = int(item.argv[item.argv.index("--trials") + 1])
        if code != 1:
            return f"expected exit 1 (the xi formula misses), got {code}"
        if len(records) != trials or body.get("koszul_matches") != trials:
            return f"expected {trials} Koszul matches, got {body.get('koszul_matches')}"
        if body.get("xi_matches") != 0:
            return f"expected 0 xi-formula matches, got {body.get('xi_matches')}"
        fits = {_rendered(r.get("polynomial")) for r in records}
        if fits != {item.answer}:
            return f"expected every fit to be {item.answer}, got {sorted(map(str, fits))}"
    elif item.kind == "rank":
        if code != 0:
            return f"expected exit 0, got {code}"
        if body.get("methods_disagree") != []:
            return f"the two routes disagree: {body.get('methods_disagree')}"
        if _rendered(body.get("polynomial")) != item.answer:
            return f"expected {item.answer}, got {_rendered(body.get('polynomial'))}"
    else:
        return f"unknown item kind {item.kind!r}"
    return None


def doctored_reports(item: Item, code: int, report: dict, other: tuple[int, dict] | None):
    """Wrong reports for `item`'s slot, each of which check_report must reject.

    `other` is a genuine report of another kind (the negative control's FAIL
    report for a PASS slot, or the reverse), when the run produced one.
    """
    def edit(fn, new_code=code):
        doc = copy.deepcopy(report)
        fn(doc["report"])
        return new_code, doc

    wrong_poly = {"coefficients": ["1", "1"], "rendered": "t+1", "stabilization_threshold": 0}
    out = [(1 - code if code in (0, 1) else 0, copy.deepcopy(report)),
           (code, {**report, "schema": 2})]
    if item.kind == "flat-pass":
        out.append(edit(lambda b: b.update(verdict="FAIL")))
        out.append(edit(lambda b: b["fibers"][-1].update(polynomial=wrong_poly)))
    elif item.kind == "flat-control":
        out.append(edit(lambda b: b.update(verdict="PASS")))
    elif item.kind == "xi":
        out.append(edit(lambda b: b.update(xi_matches=1)))
        out.append(edit(lambda b: b.update(koszul_matches=b["koszul_matches"] - 1)))
        out.append(edit(lambda b: b["records"][0].update(polynomial=wrong_poly)))
    elif item.kind == "rank":
        out.append(edit(lambda b: b.update(methods_disagree=[{"t": 8}])))
        out.append(edit(lambda b: b.update(polynomial=wrong_poly)))
    if other is not None:
        out.append(other)
    return out


def self_test_checker(item: Item, code: int, report: dict,
                      other: tuple[int, dict] | None = None) -> tuple[int, list[str]]:
    """Accept the genuine report, reject every doctored one.

    Returns the number of doctored reports tried and the problems found.
    """
    problems = []
    reason = check_report(item, code, report)
    if reason is not None:
        problems.append(f"genuine {item.kind} report rejected: {reason}")
    doctored = doctored_reports(item, code, report, other)
    for k, (dcode, doc) in enumerate(doctored):
        if check_report(item, dcode, doc) is None:
            problems.append(f"doctored {item.kind} report #{k} accepted")
    return len(doctored), problems
