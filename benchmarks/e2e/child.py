"""One benchmark repetition, run by ``run.py`` in a fresh process.

    python3 benchmarks/e2e/child.py --workload W --seed S --trace 0|1

Set-up is timed from this process's first statement to the ``Kit.run``
call: importing the program, building the corpus from the seed and
constructing the config.  Prints one JSON object on stdout.  Temporary
files (the campaign store, columnar index runs) go under ``TMPDIR``,
which ``run.py`` points into the checkout.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__":
    # Run as a script: the package root replaces this file's directory
    # (whose trace.py would shadow the standard library's).
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))

from benchmarks.e2e.trace import Tracer  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402


def _journal_cases(store_dir: str, campaign_id: str) -> int:
    from repro.store.journal import RECORD_CASE, iter_records

    path = os.path.join(store_dir, campaign_id, "journal.jsonl")
    return sum(1 for record in iter_records(path)
               if record.get("t") == RECORD_CASE)


def run_once(workload_name: str, seed: int, traced: bool) -> dict:
    workload = WORKLOADS[workload_name]
    marks = {"start": _START, "import": time.perf_counter()}
    from repro import Kit, build_corpus

    marks["corpus"] = time.perf_counter()
    corpus = build_corpus(workload.corpus_size, seed=seed)
    marks["config"] = time.perf_counter()
    store_dir = tempfile.mkdtemp(prefix="store-") if workload.stored else None
    config = workload.config(corpus, store_dir)
    marks["run"] = time.perf_counter()

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        result = Kit(config).run()
    finally:
        campaign_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    stats = result.stats
    return {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "setup_s": marks["run"] - marks["start"],
        "import_s": marks["corpus"] - marks["import"],
        "corpus_s": marks["config"] - marks["corpus"],
        "campaign_s": campaign_s,
        "peak_rss_mb": peak_kb / 1024,
        "programs": len(corpus),
        "reports": len(result.reports),
        "bugs": sorted(result.bugs_found()),
        "stats": dataclasses.asdict(stats),
        "journal_cases": (_journal_cases(store_dir, stats.campaign_id)
                          if store_dir is not None else None),
        "spans": ({name: dataclasses.asdict(span)
                   for name, span in tracer.summary().items()}
                  if tracer is not None else None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run_once(args.workload, args.seed, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
