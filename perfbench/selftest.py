#!/usr/bin/env python3
"""Self-test of the wb_perfbench benchmark. Run from the checkout root:

    python3 perfbench/selftest.py [--workloads study,fuzz,apps]

For each workload it makes two traced runs at one seed and one at another
seed (each one round per phase), plus one short untraced run, and checks:

  - two traced runs at one seed give identical per-op layer call counts,
    virtual op counts, trace sizes and virtual outputs (over the ops both
    ran);
  - another seed changes the op order or draw, but not fail_ratio (0);
  - on study and apps, layer self times cover >= 90% of op wall time;
  - the span file parses as JSON and every span's parent exists;
  - the printed metric names and units are exactly BENCHMARK.json's
    end_to_end (untraced) and per_layer (traced) lists;
  - in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.

Exits 1 if any check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SEED_A, SEED_B = 7, 8
COMPARED = ("virt", "calls", "wasm_vops", "js_vops", "trace_bytes", "trace_events")

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def out_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench" / "out"


def run(workload, seed, trace, seconds):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"selftest: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report_path = out_dir() / f"{workload}-seed{seed}-trace{trace}.report.json"
    report = json.loads(report_path.read_text())
    return result, report


def metric_spec(result, expected):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    return got == want


def test_workload(workload, bench):
    result, _ = run(workload, SEED_A, 0, 0.5)
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result line has exactly correct/attempted/failed/metrics")
    check(metric_spec(result, bench["end_to_end"]),
          f"{workload}: untraced metrics match BENCHMARK.json end_to_end")

    ra, a = run(workload, SEED_A, 1, 0.5)
    a_ops = a["traced"]["op_records"]
    rb, b = run(workload, SEED_A, 1, 0.5)
    b_ops = b["traced"]["op_records"]
    rc, c = run(workload, SEED_B, 1, 0.5)
    check(metric_spec(ra, bench["per_layer"]),
          f"{workload}: traced metrics match BENCHMARK.json per_layer")

    n = min(len(a_ops), len(b_ops))
    same = n > 0 and all(a_ops[i][k] == b_ops[i][k] for i in range(n) for k in COMPARED)
    check(same, f"{workload}: two traced runs at seed {SEED_A} repeat per-op counts "
                f"and virtual outputs exactly ({n} ops)")

    names_a = [o["name"] for o in a_ops]
    names_c = [o["name"] for o in c["traced"]["op_records"]]
    m = min(len(names_a), len(names_c))
    check(names_a[:m] != names_c[:m], f"{workload}: seed {SEED_B} changes the op order or draw")
    check(all(r["failed"] == 0 and r["correct"] for r in (result, ra, rb, rc)),
          f"{workload}: fail_ratio is 0 at seeds {SEED_A} and {SEED_B}")

    if workload in ("study", "apps"):
        cov = ra["metrics"]["trace.layer_coverage_pct"]["value"]
        check(cov >= 90.0, f"{workload}: layer self times cover {cov:.2f}% (>= 90%) of op time")

    try:
        events = json.loads(Path(a["spans_file"]).read_text())["traceEvents"]
        spans = {}
        for e in events:
            if e["ph"] == "X":
                spans[(e["tid"], e["args"]["span"])] = e
        parents_ok = all(e["args"]["parent"] < 0 or (e["tid"], e["args"]["parent"]) in spans
                         for e in spans.values())
        check(bool(spans) and parents_ok,
              f"{workload}: span file parses as JSON ({len(spans)} spans, parents resolve)")
    except (OSError, ValueError, KeyError) as e:
        check(False, f"{workload}: span file parses as JSON ({e})")


def test_bare_directory():
    bare = out_dir().parent / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(bench["command"] + ["--workload", "fuzz", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "bare directory: run.py exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="study,fuzz,apps")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in args.workloads.split(","):
        test_workload(w, bench)
    test_bare_directory()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
