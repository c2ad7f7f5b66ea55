"""mrkit benchmark: a closed loop of cold CLI requests, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each request is a fresh ``mrkit`` process, started only after the previous
one has exited, because that is how a user pays for a verdict: interpreter
start, import, load and cold memo caches.  The inputs are generated from
the seed at set-up (``inputs.py``) and every output is checked afterwards,
outside the timed region, by the benchmark's own oracle (``oracle.py``).

``--trace 0`` repeats whole rounds of the workload's requests until S
seconds have passed (at least two rounds) and reports the end-to-end
metrics of ``BENCHMARK.json``, with every time scaled to a reference CPU
speed (see ``Speed``).  ``--trace 1`` runs one round, each request once
plainly and once under ``tracer.py``, and reports the per-layer metrics.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import inputs
import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("corpus-verify", "aut-c4", "check-c4", "claims-c4")
# the filter side of the claim registry at 81 elements; lem:phiE is left out
# because it re-runs the axiom checker 16 times, which check-c4 covers
CLAIMS_C4 = ("lem:gen", "thm:lots", "thm:Boolean", "lem:localBoolean",
             "lem:localPrincBool", "lem:fixed", "lem:DeltaFixed",
             "thm:present", "thm:recoveryII", "xi:group-iso", "lem:kl",
             "eq:iotaKappa")
CONTRACT_SEED = 42      # `verify --corpus --seed 42` is the byte contract
FILES = 8               # relabelled C4 files (and mutations) per run
SETUPS_PER_ROUND = 2    # set-ups timed after each round for setup_s
MIN_ROUNDS = 2          # a median needs two main requests even on claims-c4
REQUEST_TIMEOUT_S = 120
RUN_LIMIT_S = 170       # no request outlives this much of the run
# CPU time of one calibrate.py chunk on the reference machine (a 2-vCPU
# Xeon VM) when its CPU ran fast; times are reported at this speed
CAL_REF_S = 0.00045
BIN_S = 0.1             # speed samples are averaged per bin of this width
PAUSE_S = 0.05          # calibrate.py has the CPU alone before each timing
PROBE = "probe"         # the early-exit class: check --witness first
# The CLI, which then writes its process's peak RSS to the file named by
# the first argument.  wait4's ru_maxrss would not do: Linux carries the
# benchmark's own RSS into it across fork and exec.
ENTRY = """import sys
hwm = sys.argv.pop(1)
try:
    from mrkit.cli import main
    sys.exit(main())
finally:
    with open("/proc/self/status") as status, open(hwm, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM")))
"""
# kept from the children: the default size cap applies, and bytecode is
# cached and output buffered as in a plain user shell
CALLER_ONLY_ENV = ("MRKIT_MAX_CARRIER", "PYTHONDONTWRITEBYTECODE",
                   "PYTHONUNBUFFERED")


@dataclass(frozen=True)
class Spec:
    """One request: its class, CLI arguments and the input it reads."""

    kind: str
    args: tuple
    path: Path | None = None
    corpus_seed: int | None = None


@dataclass
class Result:
    spec: Spec
    traced: bool
    wall: float
    rss_kb: int
    code: int
    out: bytes
    err: bytes
    timed_out: bool
    window: tuple[float, float]   # monotonic start and end
    trace: dict | None = None
    failure: str | None = None
    slowness: float = 1.0  # of the CPU during the request, see Speed

    @property
    def scaled(self) -> float:
        """Wall time at the reference CPU speed."""
        return self.wall / self.slowness


def round_requests(workload: str, i: int, files: dict,
                   seed: int) -> list[Spec]:
    """The i-th round of requests: the workload's main class(es) on the
    i-th input, then an early-exit probe on each mutated file."""
    clean = files["clean"][i % FILES][0]
    mutated = files["mutated"][i % FILES][0]
    probes = [Spec(PROBE, ("check", "--witness", "first", "-i", str(path)),
                   path) for path, _ in files["mutated"]]
    if workload == "corpus-verify":
        s = CONTRACT_SEED if i == 0 else \
            random.Random(seed * 100_003 + i).randrange(1, 1 << 31)
        main = [Spec("corpus", ("verify", "--corpus", "--seed", str(s)),
                     corpus_seed=s)]
    elif workload == "aut-c4":
        main = [Spec("aut", ("aut", "-i", str(clean)), clean)]
    elif workload == "check-c4":
        main = [Spec("clean", ("check", "-i", str(clean)), clean),
                Spec("all", ("check", "--witness", "all", "-i", str(mutated)),
                     mutated)]
    else:
        main = [Spec("claims", ("verify", "-i", str(clean),
                                "--claims", ",".join(CLAIMS_C4)), clean)]
    return main + probes


class Runner:
    """Spawns requests one at a time and keeps their results."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.results: list[Result] = []
        self.env = {k: v for k, v in os.environ.items()
                    if k not in CALLER_ONLY_ENV}
        self.env["PYTHONPATH"] = str(SRC)

    def run(self, spec: Spec, traced: bool) -> Result:
        n = len(self.results)
        out_path, err_path = self.work / f"{n}.out", self.work / f"{n}.err"
        trace_path = self.work / f"{n}.trace.json"
        hwm_path = self.work / f"{n}.hwm"
        argv = [sys.executable, *(
            (str(BENCH / "tracer.py"), str(trace_path)) if traced
            else ("-c", ENTRY, str(hwm_path))), *spec.args]
        timeout = min(REQUEST_TIMEOUT_S,
                      max(1.0, RUN_LIMIT_S - (perf_counter() - self.started)))
        time.sleep(PAUSE_S)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            opened = time.monotonic()
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            except BaseException:
                # interrupted (SIGTERM, ^C): leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
            window = (opened, time.monotonic())
        trace = None
        if traced and trace_path.exists():
            trace = json.loads(trace_path.read_text())
        # VmHWM:  <n> kB; no file if the child was killed
        rss_kb = int(hwm_path.read_text().split()[1]) \
            if hwm_path.exists() else 0
        result = Result(spec, traced, wall, rss_kb, code,
                        out_path.read_bytes(), err_path.read_bytes(),
                        wall >= timeout, window, trace)
        self.results.append(result)
        return result


class Oracle:
    """Checks each distinct output once; caches the parsed inputs."""

    def __init__(self, docs: dict, corpus_spec: dict):
        self.docs = docs
        self.corpus_spec = corpus_spec
        self.tables: dict[Path, oracle.Tables] = {}
        self.truth: dict[Path, object] = {}
        self.seen: dict[tuple, str | None] = {}

    def _tables(self, path):
        if path not in self.tables:
            self.tables[path] = oracle.Tables(self.docs[path])
        return self.tables[path]

    def judge(self, r: Result) -> str | None:
        if r.timed_out:
            return "timed out"
        if b"Traceback (most recent call last)" in r.err:
            return "traceback: " + r.err.decode(errors="replace")[-300:]
        if r.traced and r.trace is None:
            return "traced request wrote no trace"
        key = (r.spec, r.code, hashlib.sha256(r.out).digest())
        if key not in self.seen:
            try:
                self.seen[key] = self._check(r.spec, r.code, r.out)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                self.seen[key] = f"malformed report: {exc!r}"
        return self.seen[key]

    def _check(self, spec: Spec, code: int, out: bytes) -> str | None:
        kind, path = spec.kind, spec.path
        if kind == "corpus":
            expected = oracle.expected_corpus(self.corpus_spec,
                                              spec.corpus_seed)
            return oracle.verify_corpus(code, out, expected, spec.corpus_seed)
        if kind == "claims":
            return oracle.verify_claims(code, out, CLAIMS_C4, path.stem)
        t = self._tables(path)
        if kind == "aut":
            return oracle.verify_aut(code, out, t)
        if kind == "clean":
            if path not in self.truth:
                self.truth[path] = oracle.first_failure(t)
            return oracle.verify_check_clean(code, out, self.truth[path])
        return oracle.verify_check_mutated(
            code, out, t, "first" if kind == PROBE else "all")


def cross_check_witnesses(results: list[Result]):
    """--witness first must report the first of the --witness all list."""
    full = {}
    for r in results:
        if r.spec.kind == "all" and r.failure is None:
            full[r.spec.path] = json.loads(r.out)
    for r in results:
        if r.spec.kind != PROBE or r.failure or r.spec.path not in full:
            continue
        first, everything = json.loads(r.out), full[r.spec.path]
        for part in ("cubic", "mr"):
            if first[part]["violations"] != everything[part]["violations"][:1]:
                r.failure = f"first {part} witness is not the first of all"


def set_up(seed: int, target: Path) -> tuple[dict, tuple]:
    """Generate the run's inputs into ``target``; return them and the
    time taken with its monotonic window."""
    time.sleep(PAUSE_S)
    opened = time.monotonic()
    start = perf_counter()
    files = inputs.generate(seed, FILES, target)
    return files, (perf_counter() - start, (opened, time.monotonic()))


def time_set_ups(seed: int, work: Path) -> list[tuple]:
    """Repeat the set-up SETUPS_PER_ROUND times between rounds, so that
    setup_s samples the machine across the run as the requests do."""
    times = []
    for _ in range(SETUPS_PER_ROUND):
        times.append(set_up(seed, work / "again")[1])
        shutil.rmtree(work / "again")
    return times


class Speed:
    """How slow the shared CPU ran in a time window, from calibrate.py.

    The calibrator's samples are averaged per BIN_S bin, so the dense samples
    it takes while it has the CPU to itself weigh no more than the sparse
    ones it takes during a request.  A window's slowness is the mean over
    the bins it overlaps, widened by PAUSE_S on each side, so that even a
    short request sees the pause before it.  It is 1.0 at the reference
    speed and about 2 when the host takes half of the CPU's speed.
    """

    def __init__(self, lines: list[str]):
        bins = defaultdict(list)
        for line in lines:
            parts = line.split()
            if len(parts) == 2:  # the last line may be cut by SIGTERM
                bins[int(float(parts[0]) / BIN_S)].append(float(parts[1]))
        self.keys = sorted(bins)
        self.mean = {k: statistics.fmean(v) for k, v in bins.items()}

    def __call__(self, window: tuple[float, float]) -> float:
        lo = bisect.bisect_left(self.keys, int((window[0] - PAUSE_S) / BIN_S))
        hi = bisect.bisect_right(self.keys,
                                 int((window[1] + PAUSE_S) / BIN_S))
        if lo == hi:
            raise RuntimeError("no speed samples around a timed window")
        return statistics.fmean(
            self.mean[k] for k in self.keys[lo:hi]) / CAL_REF_S


@contextlib.contextmanager
def calibrator(work: Path):
    """Run calibrate.py beside the timed loop; yields the file its
    samples are complete in once the block has ended."""
    samples = work / "speed.txt"
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "calibrate.py"), str(samples)],
        stdout=subprocess.PIPE, cwd=ROOT)
    try:
        if proc.stdout.readline() != b"ready\n":
            raise RuntimeError("calibrate.py did not start")
        yield samples
    finally:
        proc.terminate()
        proc.wait()
        proc.stdout.close()


def layer_metrics(traced: list[Result], plain: list[Result],
                  claim_ids) -> dict:
    """Per-layer totals over the traced requests of one round."""
    calls, self_s, total = defaultdict(int), defaultdict(float), \
        defaultdict(float)
    cache = defaultdict(float)
    counts = defaultdict(int)
    import_s = 0.0
    for r in traced:
        spans = r.trace["spans"]
        inner = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                inner[parent] += end - start
        for (name, start, end, _), covered in zip(spans, inner):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - covered
        for key, value in r.trace["cache"].items():
            cache[key] += value
        for key, value in r.trace["counts"].items():
            counts[key] += value
        import_s += r.trace["import_s"]
    m = {"cli.import_s": import_s,
         "cli.load_s": self_s["cubic.from_json_dict"],
         "cli.report_s": total["cubic.to_json_dict"]
         + total["cubic.canonical_json"],
         "claims.run_claims.self_s": self_s["claims.run_claims"]}
    for name in ("cubic.check_cubic_axioms", "cubic.check_mr_axiom",
                 "cubic.replay_witness", "cubic.localize",
                 "constructions.build_I", "constructions.face_poset",
                 "filters.all_filters", "filters.filter_from",
                 "filters.generated_subalgebra", "functors.check_hom",
                 "functors.quotient_C", "automorphisms.enumerate_aut",
                 "automorphisms.find_isomorphism"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for name in ("inner_group", "omega", "coordinate_gfilters"):
        m[f"automorphisms.{name}.self_s"] = self_s[f"automorphisms.{name}"]
    m["filters.all_filters.filters_out"] = counts["filters_out"]
    m["automorphisms.enumerate_aut.maps_out"] = counts["maps_out"]
    for cid in claim_ids:
        m[f"claim.{cid.replace(':', '-')}.s"] = total[f"claim.{cid}"]
    lookups = cache["hits"] + cache["misses"]
    m.update({"cache.hits": int(cache["hits"]),
              "cache.misses": int(cache["misses"]),
              "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
              "cache.lookup_s": cache["lookup_s"],
              "cache.entries": int(cache["entries"]),
              "trace.requests": len(traced)})
    with_trace = statistics.median(main_walls(traced))
    without = statistics.median(main_walls(plain))
    m["trace.overhead_frac"] = (with_trace - without) / without
    return m


def main_walls(results: list[Result]) -> list[float]:
    return [r.wall for r in results if r.spec.kind != PROBE]


def byte_contract(results: list[Result]) -> str | None:
    recorded = json.loads((BENCH / "baseline.json").read_text())
    want = recorded["byte_contract"]["md5"]
    for r in results:
        if r.spec.corpus_seed == CONTRACT_SEED and not r.traced:
            got = hashlib.md5(r.out).hexdigest()
            state = "unchanged" if got == want else "DRIFT, recorded " + want
            return (f"byte contract `mrkit verify --corpus --seed "
                    f"{CONTRACT_SEED}`: md5 {got} ({state})")
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "mrkit" / "cli.py").is_file():
        print(f"error: no mrkit sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, declared, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            WORK.rmdir()


def measure(args, declared: dict, work: Path, started: float) -> int:
    # One CPU for the benchmark, its requests and the calibrator, so that
    # the calibrator sees the speed the requests get.  The host gives this VM's
    # CPUs speeds about 2x apart that change within seconds; wall times
    # are therefore divided by the slowness the calibrator saw.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # compile and import once, untimed: users do not pay for .pyc files
    runner = Runner(work, started)
    warm = subprocess.run([sys.executable, "-c", "import mrkit.cli"],
                          env=runner.env, cwd=ROOT, capture_output=True)
    if warm.returncode != 0:
        sys.stderr.write(warm.stderr.decode(errors="replace"))
        print("error: mrkit does not import", file=sys.stderr)
        return 2

    corpus_spec = json.loads((BENCH / "corpus_verdicts.json").read_text())
    if args.trace:
        files, _ = set_up(args.seed, work / "inputs")
        for spec in round_requests(args.workload, 0, files, args.seed):
            runner.run(spec, traced=False)
            runner.run(spec, traced=True)
    else:
        with calibrator(work) as samples:
            files, first_set_up = set_up(args.seed, work / "inputs")
            setup_times = [first_set_up]
            loop_start = perf_counter()
            # whole rounds only, so every run has the same mix of classes
            for i in itertools.count():
                if (i >= MIN_ROUNDS
                        and perf_counter() - loop_start >= args.seconds):
                    break
                for spec in round_requests(args.workload, i, files,
                                           args.seed):
                    runner.run(spec, traced=False)
                setup_times += time_set_ups(args.seed, work)
        speed = Speed(samples.read_text().splitlines())
        for r in runner.results:
            r.slowness = speed(r.window)
    docs = {path: doc for kind in files.values() for path, doc in kind}

    results = runner.results
    judge = Oracle(docs, corpus_spec)
    for r in results:
        r.failure = judge.judge(r)
    cross_check_witnesses(results)
    failed = [r for r in results if r.failure]
    for r in failed:
        print(f"FAILED {r.spec.kind} {' '.join(r.spec.args)}: {r.failure}",
              file=sys.stderr)

    by_kind = defaultdict(list)
    for r in results:
        by_kind[(r.spec.kind, r.traced)].append(r)
    for (kind, traced), rs in sorted(by_kind.items()):
        walls = [r.wall for r in rs]
        slowness = "" if args.trace else (
            f", slowness {min(r.slowness for r in rs):.2f}-"
            f"{max(r.slowness for r in rs):.2f}")
        print(f"{kind}{' traced' if traced else ''}: {len(walls)} requests, "
              f"median {statistics.median(walls):.4f} s, "
              f"range {min(walls):.4f}-{max(walls):.4f} s{slowness}")
    contract = byte_contract(results)
    if contract:
        print(contract)

    if args.trace:
        values = layer_metrics([r for r in results if r.traced],
                               [r for r in results if not r.traced],
                               corpus_spec["pass"])
        metrics = declared["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(
                wall / speed(window) for wall, window in setup_times),
            "request_s_p50": statistics.median(
                r.scaled for r in results if r.spec.kind != PROBE),
            "early_exit_s_p50": statistics.median(
                r.scaled for r in results if r.spec.kind == PROBE),
            "correct_per_min": (len(results) - len(failed)) * 60
            / sum(r.scaled for r in results),
            "peak_rss_mb": max(r.rss_kb for r in results) / 1024,
        }
        metrics = declared["end_to_end"]
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
