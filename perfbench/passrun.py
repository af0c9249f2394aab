"""One benchmark pass in its own interpreter.

    python3 perfbench/passrun.py SPEC.json

SPEC names the YAML configs, the output directory, the file to write the
result to, the parent's time.monotonic() just before it started this
interpreter, whether to set up only or to trace, and whether to probe the
host's speed.  The pass imports horolab from the checkout's src/, parses the
configs (the set-up), then runs each config through
`horolab.cli.main(["sthe-run", ...])` with --jobs 1.

The host gives this interpreter a share of a CPU whose speed drifts by up to
1.8x over seconds to minutes.  With probing on, SpeedProbe runs a fixed probe
every PROBE_INTERVAL_S of wall time, on the same CPU and between the
program's own bytecodes, and each timed stretch (set-up, pass) is reported
twice: as measured, and minus the probes' own time, scaled to a host on which
one probe takes REF_PROBE_S.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy  # before the probe starts, which calls it

PROBE_INTERVAL_S = 0.05
REF_PROBE_S = 3.5e-4


class SpeedProbe:
    """Host speed, sampled from SIGALRM while the interpreter works.

    A probe is fixed code of the kind horolab runs, independent of it: a
    Python loop over numpy scalars (as in a Moebius scan) and small numpy
    calls.  A pure-Python loop slows less than horolab does when the host is
    busy, so it was not used.  Samples are taken at even steps of wall time,
    so their mean of REF_PROBE_S / duration is the stretch's mean speed.
    """

    def __init__(self):
        self.samples = []
        self._busy = False
        self._mu = numpy.resize(numpy.array([1, -1, -1, 0, -1, 1, -1, 0]), 2001)
        self._prefix = numpy.cumsum(numpy.arange(2001))
        self._grid = numpy.linspace(0.0, 1.0, 500)
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, 1e-3, PROBE_INTERVAL_S)

    def _probe(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that lands inside a probe is dropped
            return
        self._busy = True
        start = time.perf_counter()
        self._work()  # warms the caches the program left cold, so the timed run sees the host, not the program
        tic = time.perf_counter()
        self._work()
        toc = time.perf_counter()
        self.samples.append((toc - start, toc - tic))
        self._busy = False

    def _work(self) -> None:
        mu, prefix, total = self._mu, self._prefix, 0
        for e in range(1, 600):
            if mu[e]:
                total += int(mu[e]) * int(prefix[2000 // e])
        for _ in range(30):
            numpy.floor(self._grid * 3.7).astype(numpy.int64).sum()

    def take(self, elapsed_s: float) -> dict:
        """Probe figures for a stretch of elapsed_s seconds that ends now; clears the samples."""
        samples, self.samples = self.samples, []
        probe_s = sum(spent for spent, timed in samples)
        if not samples:  # a stretch shorter than one interval: probe once after it
            self._probe()
            samples, self.samples = self.samples, []
        speed = statistics.fmean(REF_PROBE_S / timed for spent, timed in samples)
        return {"probes": len(samples), "probe_s": probe_s, "speed": speed, "ref_s": (elapsed_s - probe_s) * speed}

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    probe = SpeedProbe() if spec["probe"] else None
    import horolab
    import scipy
    import yaml
    from horolab import _kernels, cli

    src = Path(spec["src"]).resolve()
    if src not in Path(horolab.__file__).resolve().parents:
        raise SystemExit(f"horolab imported from {horolab.__file__}, not from {src}")
    docs = [yaml.safe_load(Path(path).read_text()) for path in spec["configs"]]
    for doc in docs:
        cli.config_from_dict(doc)
    setup_s = time.monotonic() - spec["launched"]
    result = {
        "setup_s": setup_s,
        "setup_probe": probe and probe.take(setup_s),
        "backend": _kernels.BACKEND,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if spec["mode"] != "setup":
        recorder = None
        if spec["mode"] == "trace":
            from tracing import Recorder  # perfbench/ is sys.path[0]

            recorder = Recorder()
            recorder.install()
        outcomes = []
        cpu = time.process_time()
        tic = time.perf_counter()
        for i, path in enumerate(spec["configs"]):
            out = Path(spec["out"]) / f"config{i}"
            try:
                code = cli.main(["sthe-run", "--config", path, "--out", str(out), "--jobs", "1"])
                outcomes.append({"out": str(out), "exit_code": code, "error": None})
            except Exception:  # a row that raises is counted as failed; the other configs still run
                outcomes.append({"out": str(out), "exit_code": None, "error": traceback.format_exc()})
        result["wall_s"] = time.perf_counter() - tic
        result["wall_probe"] = probe and probe.take(result["wall_s"])
        result["cpu_s"] = time.process_time() - cpu
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["configs"] = outcomes
        if recorder is not None:
            recorder.write(spec["spans"])
    if probe is not None:
        probe.stop()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
