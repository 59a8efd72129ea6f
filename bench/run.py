"""Benchmark for braidhom: three seeded workloads, timed end to end, with
a traced mode that splits each pass across the package's modules.

    python3 bench/run.py --workload crit-s4 --seed 1 --seconds 30 --trace 0

The benchmark is single-process and closed-loop: one pass starts only after
the previous one has finished, and passes repeat until their summed time
reaches --seconds.  Only calls into the package's public functions run
inside a pass or a timed set-up; every answer is checked against a
reference outside the timed window.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics, with every time given at the
machine's reference speed (speed.py), --trace 1 the per-layer ones, as
measured (see README.md).
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from spans import NullTracer, Tracer, instrumented
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    from braidhom import (
        bimodules,
        braided,
        catalog,
        cli,
        complexes,
        hochschild,
        monoid,
        products,
        zlinalg,
    )
except ImportError as exc:
    sys.exit(f"error: cannot import braidhom from {ROOT / 'src'}: {exc}")

OUT_DIR = ROOT / ".bench_out"
# Before every pass, set-up is repeated for at least this long and the
# block's mean is one sample of setup_s, so that its median, like the pass
# median, is taken over the whole measured window.  The median of single
# set-ups of a few milliseconds or less would jump between the machine's
# fast and slow speeds, while a block's mean, like a pass, averages over
# them before it is scaled to the reference speed (speed.py).
SETUP_BLOCK_S = 1.0
# Only degrees below the assembled top are requested: the top degree of a
# truncated complex is a cycle group, not homology.
CRIT_S4_K = 4
S3_COMPARE_K = 4
S3_DOUBLE_K = 9
SWEEP_CHAIN_K = 3
SWEEP_CRIT_K = 4

REFERENCE = {
    # integral homology of S4 in degrees 0..3
    "crit-s4": {"groups": ["Z", "Z/2", "Z/2", "Z/2 + Z/12"]},
    # integral homology of S3 in degrees 0..3
    "factorizable-s3": {"groups": ["Z", "Z/2", "0", "Z/6"]},
    # (classes, raw tables) for n = 2 and n = 3, and a sha256 over the
    # critical homology groups of every class in enumeration order
    "catalog-sweep": {
        "classes": [16, 600],
        "raw": [27, 3325],
        "groups_sha256": "1a3eba0ce67aab7e3d54891f5a96c024a0455d25a059e6f77aa92fa024e37a24",
    },
}

# Exact work counts per pass.  They do not depend on the seed; a change
# means the problem changed, not the speed, and fails a check.
COUNT_NAMES = (
    "complexes.cols",
    "complexes.nnz",
    "zlinalg.max_dense_cells",
    "zlinalg.torsion_max_bits",
    "hochschild.monoid_size",
    "catalog.classes",
    "catalog.raw",
)
EXPECTED_COUNTS = {
    "crit-s4": {
        "complexes.cols": 1771,
        "complexes.nnz": 8296,
        "zlinalg.max_dense_cells": 391952,
        "zlinalg.torsion_max_bits": 4,
    },
    "factorizable-s3": {
        "complexes.cols": 4072,
        "complexes.nnz": 24184,
        "zlinalg.max_dense_cells": 522753,
        "zlinalg.torsion_max_bits": 3,
        "hochschild.monoid_size": 6,
    },
    "catalog-sweep": {
        "complexes.cols": 39520,
        "complexes.nnz": 59136,
        "zlinalg.max_dense_cells": 1320,
        "zlinalg.torsion_max_bits": 2,
        "catalog.classes": 616,
        "catalog.raw": 3352,
    },
}

# Spans whose busy time (nested spans included) is a per-layer metric,
# reported as "<span>_s".
BUSY_SPANS = (
    "catalog.enumerate",
    "braided.check",
    "complexes.assemble",
    "complexes.split",
    "zlinalg.dd",
    "zlinalg.homology",
    "zlinalg.homology_top",
    "zlinalg.induced",
    "products.cup",
    "products.circle",
    "products.homotopy",
    "hochschild.compare",
    "hochschild.reduced_monoid",
    "hochschild.qs_map",
    "hochschild.double",
    "hochschild.totalize",
    "hochschild.dc_verify",
    "cli.compare",
)
LAYERS = ("braided", "catalog", "complexes", "zlinalg", "products", "hochschild", "cli")

# Calls made inside the package, wrapped in spans during traced passes.
TRACE_TARGETS = (
    (hochschild, "compare_homology", "hochschild.compare"),
    (hochschild, "enumerate_reduced_monoid", "hochschild.reduced_monoid"),
    (hochschild, "qs_chain_map", "hochschild.qs_map"),
    (hochschild, "critical_complex", "complexes.assemble"),
    (hochschild, "verify_chain_map", "zlinalg.dd"),
    (hochschild, "induced_map_on_homology", "zlinalg.induced"),
    (hochschild, "totalize", "hochschild.totalize"),
    (zlinalg, "verify_chain_map", "zlinalg.dd"),
)


class Checks:
    """Reference checks: counted, never timed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# --- shared helpers -----------------------------------------------------------

def _homology(tr, cx, degrees):
    groups = []
    for k in range(degrees):
        with tr.span("zlinalg.homology_top") if k == degrees - 1 else nullcontext():
            with tr.span("zlinalg.homology"):
                groups.append(zlinalg.homology(cx, k))
    return groups


def _complex_counts(cxs) -> dict:
    boundaries = [m for cx in cxs for m in cx.diffs.values()]
    return {
        "complexes.cols": sum(sum(cx.ranks) for cx in cxs),
        "complexes.nnz": sum(1 for m in boundaries for row in m.data for v in row if v),
        "zlinalg.max_dense_cells": max((m.rows * m.cols for m in boundaries), default=0),
    }


def _torsion_bits(groups) -> int:
    return max((abs(d).bit_length() for g in groups for d in g.torsion), default=0)


def _check_groups(checks, workload, groups) -> None:
    for k, (got, want) in enumerate(zip(groups, REFERENCE[workload]["groups"])):
        checks.expect(got == want, f"{workload}: H_{k} = {got}, expected {want}")


def setup_factorization(inputs):
    """The timed set-up of crit-s4 and factorizable-s3: the symmetric
    group, its exact factorization H.K and the trivial bimodule."""
    g = monoid.symmetric_group(inputs["n"])
    fact = catalog.exact_factorization(g, inputs["H"], inputs["K"])
    return {**inputs, "fact": fact, "M": bimodules.trivial_bimodule(fact.braiding)}


# --- crit-s4 -------------------------------------------------------------------

def prepare_crit_s4(seed, workdir):
    """S4 = S3.C4 with S3 the permutations fixing 3 and C4 generated by
    the 4-cycle i -> i+1 mod 4.  The seed does not change this input (see
    README.md: the 24 orderings of this factorization differ 1.8x in
    Smith-form work, which would swamp the code's own speed)."""
    g = monoid.symmetric_group(4)
    perm = {i: ast.literal_eval(name) for i, name in enumerate(g.names)}
    h = [i for i, p in perm.items() if p[3] == 3]
    c = next(i for i, p in perm.items() if p == (1, 2, 3, 0))
    k = [g.unit]
    while g.mul(k[-1], c) != g.unit:
        k.append(g.mul(k[-1], c))
    return {"n": 4, "H": h, "K": k}


def pass_crit_s4(st, tr):
    bs, M = st["fact"].braiding, st["M"]
    with tr.span("complexes.assemble"):
        cx = complexes.critical_complex(bs, M, CRIT_S4_K, pseudo_unit=bs.pseudo_unit)
    with tr.span("zlinalg.dd"):
        dd = zlinalg.verify_complex(cx)
    groups = _homology(tr, cx, CRIT_S4_K)
    return {"cx": cx, "dd": dd, "groups": groups}


def check_crit_s4(st, out, checks):
    checks.expect(out["dd"].holds, "crit-s4: d.d != 0")
    _check_groups(checks, "crit-s4", [str(g) for g in out["groups"]])
    counts = _complex_counts([out["cx"]])
    counts["zlinalg.torsion_max_bits"] = _torsion_bits(out["groups"])
    return counts


# --- factorizable-s3 -----------------------------------------------------------

def prepare_factorizable_s3(seed, workdir):
    """The seed picks one of the three exact factorizations S3 = C3.C2,
    which differ in the transposition that generates C2, and writes it as
    a factorization file for the CLI.  The three C2.C3 are left out: they
    give the same groups, but their passes take about 10% longer, which
    would measure the seed more than the code (see README.md)."""
    g = monoid.symmetric_group(3)

    def order(x):
        n, y = 1, x
        while y != g.unit:
            y, n = g.mul(y, x), n + 1
        return n

    c = next(x for x in range(g.size) if order(x) == 3)
    c3 = [g.unit, c, g.mul(c, c)]
    c2s = [[g.unit, t] for t in range(g.size) if order(t) == 2]
    h, k = c3, c2s[random.Random(seed).randrange(len(c2s))]
    path = os.path.join(workdir, "s3.json")
    with open(path, "w") as fh:
        json.dump({"monoid": g.to_json(), "H": h, "K": k}, fh)
    return {"n": 3, "H": h, "K": k, "spec": f"factorization:{path}", "out": os.path.join(workdir, "compare.json")}


def pass_factorizable_s3(st, tr):
    fact, M = st["fact"], st["M"]
    bs = fact.braiding
    argv = ["compare", "--braiding", st["spec"], "--maxdeg", str(S3_COMPARE_K), "--out", st["out"]]
    with tr.span("cli.compare"):
        code = cli.main(argv)
    with tr.span("hochschild.double"):
        dc, total = hochschild.factorizable_double_complex(fact, M, S3_DOUBLE_K)
    with tr.span("complexes.assemble"):
        crit = complexes.critical_complex(bs, M, S3_DOUBLE_K, pseudo_unit=bs.pseudo_unit)
    with tr.span("hochschild.dc_verify"):
        dc_ok = dc.verify()
    return {"code": code, "total": total, "crit": crit, "dc_ok": dc_ok}


def check_factorizable_s3(st, out, checks):
    checks.expect(out["code"] == 0, f"factorizable-s3: compare exit code {out['code']}")
    with open(st["out"]) as fh:
        report = json.load(fh)
    os.unlink(st["out"])
    checks.expect(report["ok"], "factorizable-s3: compare report not ok")
    groups = [
        zlinalg.AbelianGroupInvariants(d["critical"]["betti"], tuple(d["critical"]["torsion"]))
        for d in report["degrees"]
    ]
    _check_groups(checks, "factorizable-s3", [str(g) for g in groups])
    total, crit = out["total"], out["crit"]
    same = total.ranks == crit.ranks and all(
        total.boundary(k) == crit.boundary(k) for k in range(1, crit.top + 1)
    )
    checks.expect(same, "factorizable-s3: totalization differs from the critical complex")
    checks.expect(out["dc_ok"].holds, "factorizable-s3: double complex fails verify()")
    counts = _complex_counts([total, crit])
    counts["zlinalg.torsion_max_bits"] = _torsion_bits(groups)
    counts["hochschild.monoid_size"] = report["monoid_size"]
    return counts


# --- catalog-sweep -------------------------------------------------------------

def prepare_catalog_sweep(seed, workdir):
    """The seed draws the values of the degree-1 and degree-2 integer
    cochains used for the products of every class; the classes themselves
    are fixed."""
    rng = random.Random(seed)

    def values(n, degree):
        return {w: rng.randint(-5, 5) for w in itertools.product(range(n), repeat=degree)}

    counts = REFERENCE["catalog-sweep"]["classes"]
    return {n: [(values(n, 1), values(n, 2)) for _ in range(count)] for n, count in zip((2, 3), counts)}


def setup_catalog_sweep(inputs):
    """The timed set-up: the package's cochains from the drawn values."""
    ring = products.CoeffRing()
    return {
        n: [(products.Cochain(1, ring, f), products.Cochain(2, ring, g)) for f, g in pairs]
        for n, pairs in inputs.items()
    }


def _sweep_item(tr, bs, f, g):
    with tr.span("braided.check"):
        basic = (
            braided.check_ybe(bs),
            braided.check_idempotent(bs),
            braided.verify_braided_semigroup(bs, max_len=1),
        )
    M = bimodules.trivial_bimodule(bs)
    with tr.span("complexes.assemble"):
        chains = complexes.braided_chain_complex(bs, M, SWEEP_CHAIN_K)
    with tr.span("zlinalg.dd"):
        dd = zlinalg.verify_complex(chains)
    with tr.span("complexes.split"):
        split = complexes.split_differentials(bs, M, SWEEP_CHAIN_K)[2]
    with tr.span("complexes.assemble"):
        crit = complexes.critical_complex(bs, M, SWEEP_CRIT_K)
    groups = _homology(tr, crit, SWEEP_CRIT_K)
    with tr.span("products.cup"):
        products.cup_product(bs, f, g)
    with tr.span("products.circle"):
        products.circle_product(bs, f, g)
    with tr.span("products.homotopy"):
        homotopy = products.check_homotopy_identity(bs, f, g)
    return {"reports": basic + (dd, split, homotopy), "chains": chains, "crit": crit, "groups": groups}


def _sweep_facts(item) -> dict:
    """What the check needs of one class, so that a pass keeps no
    complexes and peak_rss_mb holds one class's outputs at a time."""
    crit, groups = item["crit"], item["groups"]
    return {
        "holds": all(r.holds for r in item["reports"]),
        "groups": [str(g) for g in groups],
        "bettis": [g.betti for g in groups],
        "rational_bettis": [
            crit.ranks[k]
            - zlinalg.rational_rank(crit.boundary(k))
            - zlinalg.rational_rank(crit.boundary(k + 1))
            for k in range(SWEEP_CRIT_K)
        ],
        "torsion_bits": _torsion_bits(groups),
        "counts": _complex_counts([item["chains"], crit]),
    }


def pass_catalog_sweep(st, tr):
    with tr.span("catalog.enumerate"):
        reports = [catalog.enumerate_idempotent_braidings(n) for n in (2, 3)]
    items, untimed = [], 0.0
    for n, rep in zip((2, 3), reports):
        cochains = st[n]
        for i, bs in enumerate(rep.classes):
            t0 = time.perf_counter()
            item = _sweep_item(tr, bs, *cochains[i])
            t1 = time.perf_counter()
            # the check's reduction and the freeing of the class's outputs
            # are not part of the pass
            with tr.span("bench.check"):
                items.append({"start": t0, "end": t1, **_sweep_facts(item)})
                del item
            untimed += time.perf_counter() - t1
    return {"counts": [(rep.class_count, rep.raw_count) for rep in reports], "items": items, "untimed_s": untimed}


def check_catalog_sweep(st, out, checks):
    ref = REFERENCE["catalog-sweep"]
    for (n_classes, n_raw), want_classes, want_raw in zip(out["counts"], ref["classes"], ref["raw"]):
        checks.expect(n_classes == want_classes, f"catalog-sweep: {n_classes} classes")
        checks.expect(n_raw == want_raw, f"catalog-sweep: {n_raw} raw tables")
    digest = hashlib.sha256()
    for i, item in enumerate(out["items"]):
        checks.expect(item["holds"], f"catalog-sweep: item {i} check fails")
        checks.expect(
            item["bettis"] == item["rational_bettis"],
            f"catalog-sweep: item {i} betti numbers differ from rational ranks",
        )
        digest.update(repr(item["groups"]).encode())
    got = digest.hexdigest()
    checks.expect(got == ref["groups_sha256"], f"catalog-sweep: groups sha256 {got}")
    per_item = [item["counts"] for item in out["items"]]
    return {
        "complexes.cols": sum(c["complexes.cols"] for c in per_item),
        "complexes.nnz": sum(c["complexes.nnz"] for c in per_item),
        "zlinalg.max_dense_cells": max(c["zlinalg.max_dense_cells"] for c in per_item),
        "zlinalg.torsion_max_bits": max(item["torsion_bits"] for item in out["items"]),
        "catalog.classes": sum(n_classes for n_classes, _ in out["counts"]),
        "catalog.raw": sum(n_raw for _, n_raw in out["counts"]),
    }


WORKLOADS = {
    "crit-s4": (prepare_crit_s4, setup_factorization, pass_crit_s4, check_crit_s4),
    "factorizable-s3": (prepare_factorizable_s3, setup_factorization, pass_factorizable_s3, check_factorizable_s3),
    "catalog-sweep": (prepare_catalog_sweep, setup_catalog_sweep, pass_catalog_sweep, check_catalog_sweep),
}


# --- measurement ---------------------------------------------------------------

def _check_counts(workload, counts, checks) -> dict:
    full = {name: counts.get(name, 0) for name in COUNT_NAMES}
    for name, want in EXPECTED_COUNTS[workload].items():
        checks.expect(full[name] == want, f"{workload}: count {name} = {full[name]}, expected {want}")
    return full


def _layer_metrics(tracer: Tracer, runs) -> dict:
    """Mean over the traced passes of every span-derived per-layer metric."""
    per_run = []
    for run in runs:
        busy = tracer.busy_times(run)
        own = tracer.self_times(run)
        m = {f"{name}_s": busy.get(name, 0.0) for name in BUSY_SPANS}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.startswith(layer + "."))
        # compare_homology is the only span inside the CLI call, so the CLI's
        # own time is cli.compare_s - hochschild.compare_s
        m["cli.overhead_s"] = m.pop("cli.self_s")
        m["bench.unattributed_s"] = own["bench.pass"]
        # the check's work inside a pass (bench.check) is not pass time
        m["bench.traced_wall_s"] = busy["bench.pass"] - busy.get("bench.check", 0.0)
        per_run.append(m)
    return {k: statistics.fmean(m[k] for m in per_run) for k in per_run[0]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, extra information)."""
    prepare, setup, run_pass, check = WORKLOADS[workload]
    checks = Checks()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        # the seeded inputs are made once, untimed; set-up times only the
        # package's calls that turn them into a pass's arguments
        inputs = prepare(seed, workdir)
        tracer = Tracer()
        # (start, end, seconds measured) of every set-up block, untraced
        # pass and item, to be scaled to the reference speed (speed.py)
        setups, passes, items = [], [], []
        traced_walls, traced_runs = [], []
        counts = {}
        with SpeedProbe() as probe:
            while sum(p[2] for p in passes) + sum(traced_walls) < seconds or not passes:
                block, repeats = 0.0, 0
                b0 = time.perf_counter()
                while block < SETUP_BLOCK_S:
                    state = None  # freed outside the timed set-up
                    t0 = time.perf_counter()
                    state = setup(inputs)
                    block += time.perf_counter() - t0
                    repeats += 1
                setups.append((b0, time.perf_counter(), block / repeats))
                # in traced runs every other pass is traced, so the same run
                # also measures what tracing costs
                traced = trace and len(traced_walls) <= len(passes)
                if traced:
                    tracer.run = len(traced_runs)
                    traced_runs.append(tracer.run)
                    with instrumented(tracer, TRACE_TARGETS), tracer.span("bench.pass"):
                        t0 = time.perf_counter()
                        out = run_pass(state, tracer)
                        traced_walls.append(time.perf_counter() - t0 - out.get("untimed_s", 0.0))
                else:
                    t0 = time.perf_counter()
                    out = run_pass(state, NullTracer())
                    t1 = time.perf_counter()
                    passes.append((t0, t1, t1 - t0 - out.get("untimed_s", 0.0)))
                    if "items" in out:
                        items.extend((it["start"], it["end"], it["end"] - it["start"]) for it in out["items"])
                    else:
                        items.append(passes[-1])
                counts = _check_counts(workload, check(state, out, checks), checks)
                del out  # so that two passes' outputs never count together in peak_rss_mb
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [sec for _, _, sec in passes]
    if trace:
        # span times are as measured: their shares of a pass need no scaling
        metrics = _layer_metrics(tracer, traced_runs)
        metrics["bench.trace_overhead_s"] = statistics.fmean(traced_walls) - statistics.fmean(walls)
        metrics.update({name: float(v) for name, v in counts.items()})
        units = {name: ("count" if name in COUNT_NAMES else "s") for name in metrics}
        trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        tracer.write(trace_path)
    else:
        def scaled(spans):
            return [sec * probe.factor(t0, t1) for t0, t1, sec in spans]

        metrics = {
            "pass_s": statistics.median(scaled(passes)),
            "item_p50_ms": statistics.median(scaled(items)) * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(scaled(setups)),
        }
        units = {"pass_s": "s", "item_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
    failed = len(checks.failures)
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes) + len(traced_walls),
        "pass_s": walls,
        "pass_speed": [probe.factor(t0, t1) for t0, t1, _ in passes],
        "traced_pass_s": traced_walls,
        "items": len(items),
        "speed_samples": len(probe.took),
        "error_rate": failed / checks.attempted,
        "failures": checks.failures[:10],
        "counts": counts,
        **environment(),
    }
    if trace:
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    return result, info


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    """HEAD of the checkout, or "unknown" where it is not a git repository.
    git does not look above the checkout for one."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True, help="summed pass time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in info["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
