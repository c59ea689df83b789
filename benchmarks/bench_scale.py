"""SCALE — the 100k-statement tier: throughput and peak RSS, cold and warm.

Every other benchmark in the trajectory gates at 400 views; this one runs
the scale tier streaming extraction was built for: 10k / 30k / 100k
generated statements, cold and warm over the persistent store, with peak
RSS recorded per phase.

Each phase runs in its own **subprocess** (``python bench_scale.py
--child '<json>'``) so ``resource.getrusage().ru_maxrss`` — a high-water
mark that never resets within a process — is clean per measurement: the
cold run's AST population cannot inflate the warm run's reading, and the
materialized ablation arm cannot inflate the streaming arm's.

Artifacts:

* a per-tier report (``benchmarks/results/scale.*``);
* the committed trajectory file ``BENCH_scale.json`` at the repo root
  (cold/warm statements-per-second and peak RSS per tier, and the
  streaming-vs-materialized memory ablation).  Its ``baseline`` section
  is pinned on first emit and never overwritten.

Gates (skipped on shared CI runners unless ``BENCH_STRICT=1``):

* **warm splice** — the warm run at the 10k tier must splice 100% from
  the store (structural — asserted everywhere) and be >= 2x faster than
  cold (wall-clock — gated);
* **memory budget** — streaming peak RSS at the 100k tier must stay
  under ``MEMORY_BUDGET_MB``;
* **ablation** — streaming extraction must peak below the
  materialize-everything path at the same scale.

``BENCH_SCALE_QUICK=1`` shrinks the tiers to ~1k/5k for the CI smoke
job (artifact upload only — no wall-clock or budget gates fire there).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

from _report import REPO_ROOT, emit, emit_json, emit_root_json, table

SEED = 97
QUICK = bool(os.environ.get("BENCH_SCALE_QUICK"))
TIERS = [1_000, 5_000] if QUICK else [10_000, 30_000, 100_000]
#: the tier the warm-splice / warm-speedup gate is evaluated at (the
#: ISSUE names 10k; quick mode gates nothing, so its first tier only
#: anchors the ablation).
GATE_TIER = TIERS[0]
#: peak-RSS budget for the streaming runs at the top tier, in MB.  At 100k
#: statements the recording machine measured ~900 MB cold / ~1050 MB warm —
#: dominated by the *result* (100k TableLineage entries plus the full
#: column graph), which streaming deliberately retains; what it bounds is
#: the transient AST population, which no longer scales with the corpus
#: (see the ablation series).  ~15% headroom over the measured warm peak.
MEMORY_BUDGET_MB = 1200

_CHILD_MARKER = "SCALE_CHILD_RESULT "


def _base_tables(tier):
    """Warehouse width scales with depth so the catalog stays realistic."""
    return max(10, tier // 200)


# ----------------------------------------------------------------------
# child process: one measured phase, clean ru_maxrss
# ----------------------------------------------------------------------

def _child_main(config):
    import resource

    from repro.core.runner import LineageXRunner
    from repro.datasets import workload
    from repro.store import LineageStore

    tier = config["tier"]
    warehouse = workload.iter_warehouse(
        num_base_tables=config["base_tables"], num_views=tier, seed=config["seed"]
    )
    catalog = warehouse.catalog()
    store = None
    if config["cache_dir"]:
        store = LineageStore(config["cache_dir"])
    runner = LineageXRunner(catalog=catalog, store=store, stream=config["stream"])
    started = time.perf_counter()
    result = runner.run(warehouse)
    elapsed = time.perf_counter() - started
    if store is not None:
        store.close()
    stats = result.stats()
    # ru_maxrss is KiB on Linux
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        _CHILD_MARKER
        + json.dumps(
            {
                "elapsed_s": round(elapsed, 3),
                "stmt_per_s": round(tier / max(elapsed, 1e-9), 1),
                "peak_rss_mb": round(peak_kb / 1024.0, 1),
                "num_entries": len(result.graph.views),
                "num_reused_store": stats["num_reused_store"],
                "num_unresolved": len(result.report.unresolved),
            }
        )
    )


def _run_child(tier, cache_dir=None, stream=True):
    config = {
        "tier": tier,
        "base_tables": _base_tables(tier),
        "seed": SEED,
        "cache_dir": cache_dir,
        "stream": stream,
    }
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", json.dumps(config)],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"scale child failed (tier={tier}, stream={stream}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith(_CHILD_MARKER):
            result = json.loads(line[len(_CHILD_MARKER):])
            # structural invariants hold for every phase at every tier
            assert result["num_entries"] == tier, result
            assert result["num_unresolved"] == 0, result
            return result
    raise AssertionError(f"scale child printed no result:\n{proc.stdout}\n{proc.stderr}")


def _store_mb(cache_dir):
    total = 0
    for name in os.listdir(cache_dir):
        total += os.path.getsize(os.path.join(cache_dir, name))
    return round(total / (1024.0 * 1024.0), 1)


def _gates_active():
    """Wall-clock and budget gates: local / BENCH_STRICT only, never quick."""
    if QUICK or os.environ.get("BENCH_NO_GATES"):
        return False
    return not os.environ.get("CI") or os.environ.get("BENCH_STRICT")


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------

def test_scale_report():
    series = []
    for tier in TIERS:
        cache_dir = tempfile.mkdtemp(prefix="lineage-scale-bench-")
        try:
            cold = _run_child(tier, cache_dir=cache_dir, stream=True)
            store_mb = _store_mb(cache_dir)
            warm = _run_child(tier, cache_dir=cache_dir, stream=True)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        # structural: cold never splices, warm splices every statement
        assert cold["num_reused_store"] == 0
        assert warm["num_reused_store"] == tier, (
            f"warm run at {tier} spliced only {warm['num_reused_store']}"
        )
        series.append(
            {
                "tier": tier,
                "cold_s": cold["elapsed_s"],
                "cold_stmt_per_s": cold["stmt_per_s"],
                "cold_peak_rss_mb": cold["peak_rss_mb"],
                "warm_s": warm["elapsed_s"],
                "warm_stmt_per_s": warm["stmt_per_s"],
                "warm_peak_rss_mb": warm["peak_rss_mb"],
                "warm_spliced": warm["num_reused_store"],
                "speedup": round(cold["elapsed_s"] / max(warm["elapsed_s"], 1e-9), 2),
                "store_mb": store_mb,
            }
        )

    # streaming vs materialize-everything: same corpus, no store, so the
    # delta is exactly the retained AST population
    ablation_dir = None  # both arms run storeless — memory only
    streaming = _run_child(GATE_TIER, cache_dir=ablation_dir, stream=True)
    materialized = _run_child(GATE_TIER, cache_dir=ablation_dir, stream=False)
    ablation = {
        "tier": GATE_TIER,
        "streaming_peak_rss_mb": streaming["peak_rss_mb"],
        "materialized_peak_rss_mb": materialized["peak_rss_mb"],
        "saving_ratio": round(
            materialized["peak_rss_mb"] / max(streaming["peak_rss_mb"], 1e-9), 2
        ),
    }

    payload = {
        "config": {
            "seed": SEED,
            "tiers": TIERS,
            "memory_budget_mb": MEMORY_BUDGET_MB,
            "quick": QUICK,
        },
        "current": {
            "series": series,
            "ablation": ablation,
        },
        # pinned on first emit, preserved by emit_root_json() ever after
        "baseline": {
            "series": series,
            "ablation": ablation,
        },
    }

    rows = [
        (
            row["tier"],
            f"{row['cold_s']:.1f}",
            f"{row['cold_stmt_per_s']:.0f}",
            f"{row['cold_peak_rss_mb']:.0f}",
            f"{row['warm_s']:.1f}",
            f"{row['warm_stmt_per_s']:.0f}",
            f"{row['warm_peak_rss_mb']:.0f}",
            f"{row['speedup']:.1f}x",
            f"{row['store_mb']:.0f}",
        )
        for row in series
    ]
    lines = table(
        [
            "#stmts", "cold (s)", "cold st/s", "cold MB",
            "warm (s)", "warm st/s", "warm MB", "speedup", "store MB",
        ],
        rows,
    )
    lines.append("")
    lines.append(
        f"ablation at {GATE_TIER}: streaming peaks at "
        f"{ablation['streaming_peak_rss_mb']:.0f} MB vs "
        f"{ablation['materialized_peak_rss_mb']:.0f} MB materialized "
        f"({ablation['saving_ratio']:.1f}x saving)"
    )
    emit("scale", "Scale tier — cold/warm throughput and peak RSS", lines)
    emit_json("scale", payload)

    if _gates_active():
        gate = series[0]
        assert gate["speedup"] >= 2.0, (
            f"warm start only {gate['speedup']:.1f}x faster at {gate['tier']} "
            f"statements; the scale-tier promise is >= 2x"
        )
        top = series[-1]
        peak = max(top["cold_peak_rss_mb"], top["warm_peak_rss_mb"])
        assert peak <= MEMORY_BUDGET_MB, (
            f"streaming run at {top['tier']} statements peaked at "
            f"{peak:.0f} MB — over the {MEMORY_BUDGET_MB} MB budget"
        )
        assert ablation["streaming_peak_rss_mb"] < ablation["materialized_peak_rss_mb"], (
            f"streaming ({ablation['streaming_peak_rss_mb']:.0f} MB) did not "
            f"peak below materialized "
            f"({ablation['materialized_peak_rss_mb']:.0f} MB) at {GATE_TIER}"
        )

    if not QUICK:
        # refresh the trajectory only after the gates pass — a failing run
        # must not rewrite the reference it compares against
        emit_root_json("scale", payload)


def test_scale_corpus_resolves():
    """Sanity: the streamed warehouse at small scale resolves completely."""
    result = _run_child(500, cache_dir=None, stream=True)
    assert result["num_unresolved"] == 0
    assert result["num_entries"] == 500


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        _child_main(json.loads(sys.argv[2]))
    else:
        raise SystemExit("usage: bench_scale.py --child '<json-config>'")
