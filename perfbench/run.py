#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload discover-40k|serve-8k|ingest-8k \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the tind libraries, tind_serve and
perfbench_tool from source into .bench_build, generates the workload's inputs
once into .bench_cache (digest-checked on every later use), runs the workload
with traffic and samples drawn from --seed, checks every answer, and prints
as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
the latency metrics, which are not gated, are printed on the line before.
With --trace 1 the workload runs once untraced and once traced, and the
metrics are the per-layer metrics: layer figures from the traced run,
latency.<metric> from the untraced one, and overhead.<metric> (traced minus
untraced) for every end-to-end and latency metric. Spans go to
.bench_cache/trace/.
The exit code is non-zero when any answer was wrong or the run failed.
METRICS.md beside this file defines every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
import zlib

WORKLOADS = ("discover-40k", "serve-8k", "ingest-8k")
BUILD_DIR = ".bench_build"
CACHE_DIR = ".bench_cache"
SETUP_REPEATS = 3
RUN_TIMEOUT_S = 170
MAX_INFLIGHT = 4096
# Measured and printed on the "latency:" line of every run, and reported as
# latency.<name> in traced runs, but not gated in BENCHMARK.json: on a
# shared VM they track vCPU steal (serve-8k p50 0.83 ms at 0.4% steal,
# 1.4 ms at 5%; ten-seed spreads 0.26-0.33 of the median in noisy hours).
LATENCY_METRICS = {"p50_ms": "ms", "p99_ms": "ms", "ttfr_p50_ms": "ms",
                   "capacity_qps": "1/s"}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def load_spec():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def build(jobs):
    """Configures once, then builds the two binaries (a no-op when fresh)."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no tind sources here (run from a checkout root)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(jobs), "--target",
                    "perfbench_tool", "tind_serve_tool"],
                   check=True, stdout=sys.stderr)
    return (os.path.join(BUILD_DIR, "perfbench_tool"),
            os.path.join(BUILD_DIR, "tind", "tools", "tind_serve"))


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def cached(path, make):
    """Runs make(tmp) to create directory `path` unless a copy whose sha256
    digests match its manifest is already cached."""
    manifest = path + ".sha256.json"

    def files(root):
        return {n: os.path.join(root, n) for n in sorted(os.listdir(root))}

    if os.path.isfile(manifest) and os.path.exists(path):
        with open(manifest) as f:
            digests = json.load(f)
        present = files(path)
        if present.keys() == digests.keys() and all(
                sha256(present[n]) == h for n, h in digests.items()):
            return path
        log("cached %s fails its digest; regenerating" % path)
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(path, ignore_errors=True)
    make(tmp)
    digests = {n: sha256(f) for n, f in files(tmp).items()}
    os.rename(tmp, path)
    with open(manifest, "w") as f:
        json.dump(digests, f, indent=1)
    return path


def inputs(tool, workload):
    """The workload's input directory, generated once and digest-checked on
    every use."""
    def make(tmp):
        os.makedirs(tmp)
        subprocess.run([tool, "gen", "--workload=" + workload, "--dir=" + tmp],
                       check=True, stdout=sys.stderr, timeout=600)

    os.makedirs(CACHE_DIR, exist_ok=True)
    return cached(os.path.join(CACHE_DIR, workload), make)


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise RuntimeError("no report line in tool output")


def run_tool(args, timeout):
    out = subprocess.run(args, check=True, stdout=subprocess.PIPE,
                         text=True, timeout=timeout).stdout
    return last_json_line(out)


# ---- Server processes -------------------------------------------------------

def ping(port):
    """One kPing frame; True once a kPong comes back."""
    header = struct.pack("<IBBHQI", 0x444E4954, 1, 1, 0, 1, 0)
    frame = header + struct.pack("<I", zlib.crc32(header))
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=1) as s:
            s.sendall(frame)
            reply = b""
            while len(reply) < 24:
                chunk = s.recv(24 - len(reply))
                if not chunk:
                    return False
                reply += chunk
            return reply[5] == 17  # MessageType::kPong
    except OSError:
        return False


class Server:
    """A tind_serve (or, traced, perfbench_tool host) child process."""

    def __init__(self, cmd, work, spans):
        self.port_file = os.path.join(work, "port")
        self.metrics_file = os.path.join(work, "server_metrics.json")
        for f in (self.port_file, self.metrics_file):
            if os.path.exists(f):
                os.remove(f)
        self.log = open(os.path.join(work, "server.log"), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd + ["--port_file=" + self.port_file],
                                     stdout=subprocess.DEVNULL, stderr=self.log)
        self.port = None
        while time.perf_counter() - t0 < 120:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited with %d during start" % self.proc.returncode)
            if self.port is None and os.path.isfile(self.port_file):
                with open(self.port_file) as f:
                    self.port = int(f.read().strip())
            if self.port is not None and ping(self.port):
                break
            time.sleep(0.002)
        else:
            self.stop()
            raise RuntimeError("server not ready within 120 s")
        self.setup_s = time.perf_counter() - t0
        spans.append({"name": "server.setup", "start_s": t0,
                      "end_s": t0 + self.setup_s, "pid": self.proc.pid})

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """SIGTERM (drain), then wait for the process to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def serve_workload(tool, serve_bin, workload, d, seed, seconds, trace, spans_dir):
    corpus = os.path.join(d, "corpus.tsv")
    args = ["--corpus=" + corpus]
    if workload == "serve-8k":
        args.append("--snapshot=" + os.path.join(d, "index.tsnap"))
    # The admission bound is raised from 256 so that a host stall (vCPU steal
    # bursts reach 15% on shared VMs) shows as latency instead of as shed
    # requests; overload still shows in the capacity search as requests over
    # its latency limit. perfbench_tool host applies the same bound.
    args.append("--max_inflight=%d" % MAX_INFLIGHT)
    cmd = ([tool, "host"] + args) if trace else ([serve_bin, "--ingest"] + args)
    work = os.path.join(CACHE_DIR, "work")
    os.makedirs(work, exist_ok=True)
    if trace:
        cmd.append("--metrics_json=" + os.path.join(work, "server_metrics.json"))
    spans = []
    setups = []
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server(cmd, work, spans)
            setups.append(server.setup_s)
        load_args = [tool, "load", "--workload=" + workload, "--dir=" + d,
                     "--port=%d" % server.port, "--server_pid=%d" % server.proc.pid,
                     "--seed=%d" % seed, "--seconds=%g" % seconds,
                     "--trace=%d" % trace]
        if trace:
            load_args += ["--spans=" + os.path.join(
                spans_dir, "%s-%d.load.jsonl" % (workload, seed)),
                "--server_metrics=" + server.metrics_file]
        t0 = time.perf_counter()
        report = run_tool(load_args, RUN_TIMEOUT_S)
        spans.append({"name": "load", "start_s": t0, "end_s": time.perf_counter()})
        report["metrics"]["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    report["metrics"]["setup_s"] = statistics.median(setups)
    if trace:
        exported = None
        if os.path.isfile(server.metrics_file):
            with open(server.metrics_file) as f:
                exported = json.load(f)
        merge_server_metrics(report, exported)
        with open(os.path.join(spans_dir, "%s-%d.run.jsonl" % (workload, seed)), "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
    return report


def merge_server_metrics(report, exported):
    m = report["metrics"]
    if exported is None:
        report["correct"] = False
        report.setdefault("errors", []).append("traced server exported no metrics")
        return
    reg = exported.get("registry", {})
    counters = reg.get("counters", {})
    m["serve.server_p50_ms"] = exported["p50_ms"]
    m["serve.outside_server_p50_ms"] = m["p50_ms"] - exported["p50_ms"]
    for k in ("shed", "degraded", "deadline_exceeded"):
        m["serve." + k] = exported[k]
    batch = reg.get("histograms", {}).get("serve/batch_size", {})
    mean = batch.get("mean", 0.0) if batch.get("count", 0) else 0.0
    m["serve.batch_size_mean"] = mean
    m["serve.index_ms_per_batch"] = replay_at(m, mean)
    decided = {k: counters.get("planner/" + k, 0)
               for k in ("full", "skip_to_validation", "skip_slices")}
    total = sum(decided.values())
    m["planner.skip_share"] = ((decided["skip_to_validation"] + decided["skip_slices"]) / total
                               if total else 0.0)


def replay_at(m, batch):
    """Interpolates the in-process replay timings at the observed batch size."""
    sizes = sorted(int(k.rsplit(".", 1)[1]) for k in m if k.startswith("replay.ms_per_batch."))
    if not sizes or batch <= 0:
        return 0.0
    pts = [(s, m["replay.ms_per_batch.%d" % s]) for s in sizes]
    if batch <= pts[0][0]:
        return pts[0][1]
    for (s0, v0), (s1, v1) in zip(pts, pts[1:]):
        if batch <= s1:
            return v0 + (v1 - v0) * (batch - s0) / (s1 - s0)
    return pts[-1][1]


# ---- Entry point -----------------------------------------------------------

def run_once(tool, serve_bin, workload, d, seed, seconds, trace, spans_dir):
    if workload == "discover-40k":
        args = [tool, "discover", "--dir=" + d, "--seed=%d" % seed,
                "--seconds=%g" % seconds, "--trace=%d" % trace]
        if trace:
            args.append("--spans=" + os.path.join(spans_dir, "%s-%d.jsonl" % (workload, seed)))
        return run_tool(args, RUN_TIMEOUT_S)
    return serve_workload(tool, serve_bin, workload, d, seed, seconds, trace, spans_dir)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    spec = load_spec()
    tool, serve_bin = build(os.cpu_count() or 1)
    d = inputs(tool, opts.workload)
    spans_dir = os.path.join(CACHE_DIR, "trace")
    os.makedirs(spans_dir, exist_ok=True)

    plain = run_once(tool, serve_bin, opts.workload, d, opts.seed, opts.seconds, 0, spans_dir)
    attempted, failed = plain["attempted"], plain["failed"]
    m = plain["metrics"]
    m["ok_share"] = 1.0 - failed / max(1, attempted)
    print("latency: " + json.dumps({n: {"value": m[n], "unit": u}
                                     for n, u in LATENCY_METRICS.items()}))
    reports = [plain]
    names = spec["end_to_end"]
    if opts.trace:
        traced = run_once(tool, serve_bin, opts.workload, d, opts.seed, opts.seconds, 1, spans_dir)
        reports.append(traced)
        tm = traced["metrics"]
        tm["ok_share"] = 1.0 - traced["failed"] / max(1, traced["attempted"])
        for n in [e["name"] for e in spec["end_to_end"]] + list(LATENCY_METRICS):
            tm["overhead." + n] = tm[n] - m[n]
        for n in LATENCY_METRICS:
            tm["latency." + n] = m[n]
        attempted += traced["attempted"]
        failed += traced["failed"]
        m = tm
        names = spec["per_layer"]

    diagnostics = {k: m.get(k, 0.0) for k in ("host.steal_share", "gen.lag_p99_ms",
                                              "gen.achieved_over_offered")}
    diagnostics["errors"] = [e for r in reports for e in r.get("errors", [])]
    print("diagnostics: " + json.dumps(diagnostics))
    correct = all(r["correct"] for r in reports)
    metrics = {e["name"]: {"value": float(m.get(e["name"], 0.0)), "unit": e["unit"]}
               for e in names}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
