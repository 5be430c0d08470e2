"""Live sweep telemetry: worker heartbeats and the parent progress board.

A sweep at paper scale keeps workers busy for minutes; until now the
parent printed nothing between "running" and the final table.  This
module adds a side channel over the pipe the workers already have:

* **Worker side** — :class:`ProgressReporter` runs inside
  ``python -m repro.runner --worker ... --progress``.  It wraps
  ``Simulator.run`` (class-wide, so every simulator an experiment
  creates is covered) and runs each finite ``until`` horizon as
  back-to-back virtual-time slices.  Between slices, on the simulation
  thread, it writes one JSON heartbeat on stdout once the wall interval
  has passed — the worker's stdout is otherwise unused, so the protocol
  needs no new file descriptors.  Slicing is invisible to the run: the
  engine advances its clock to each slice end exactly as it would pass
  that instant inside one long run, and a slice ended by
  ``Simulator.stop()`` ends the whole call.  The event count is exact —
  ``events_processed`` summed at slice boundaries — and the engine's
  per-event loop carries no instrumentation.

* **Parent side** — :class:`ProgressBoard` collects heartbeats (and
  start/done/failed lifecycle records) from all workers, renders
  per-worker status lines (vtime frontier, events/s, ETA), and appends
  every record to ``progress.jsonl`` — which the HTML dashboard renders
  as a live-run card.

Heartbeat record::

    {"kind": "sweep.heartbeat", "exp": "fig08", "wall": 12.5,
     "vt": 2.31, "vt_end": 5.0, "events": 1273450, "eps": 405120,
     "eta": 13.2}

``vt``/``vt_end`` are virtual seconds; ``eta`` extrapolates the
remaining virtual time at the recent virtual-time rate.  ``eps`` is
engine events per wall second over the last interval.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from math import inf
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, TextIO

HEARTBEAT = "sweep.heartbeat"

Emit = Callable[[str], None]

#: Virtual seconds covered by the first slice of a run (before its
#: virtual-time rate is measured) and the floor under every later slice.
MIN_SLICE = 1e-3


def default_progress_path(cache_dir: Optional[Path] = None) -> Path:
    """Where ``sweep --progress`` writes its feed: ``<cache>/progress.jsonl``."""
    from repro.runner.cache import default_cache_dir

    base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return base / "progress.jsonl"


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class ProgressReporter:
    """Emits periodic heartbeat JSON lines for the experiment running here."""

    def __init__(
        self,
        exp_id: str,
        interval: float = 0.5,
        out: Optional[TextIO] = None,
    ):
        self.exp_id = exp_id
        self.interval = interval
        self._out: Optional[TextIO] = out if out is not None else sys.stdout
        self._events_done = 0
        self._t0 = time.perf_counter()
        self._last_beat = self._t0
        self._last: Optional[tuple] = None
        self._orig_run: Optional[Callable] = None

    # -- engine hook -----------------------------------------------------
    def start(self) -> "ProgressReporter":
        from repro.sim import engine

        if self._orig_run is not None:
            raise RuntimeError("reporter already started")
        orig = engine.Simulator.run
        self._orig_run = orig

        @functools.wraps(orig)
        def run(sim, until=None):
            if until is None or until == inf:
                before = sim.events_processed
                orig(sim, until)
                self._events_done += sim.events_processed - before
            else:
                self._run_sliced(orig, sim, until)

        engine.Simulator.run = run
        return self

    def stop(self) -> None:
        if self._orig_run is not None:
            from repro.sim import engine

            engine.Simulator.run = self._orig_run
            self._orig_run = None

    def __enter__(self) -> "ProgressReporter":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def _run_sliced(self, run: Callable, sim: Any, until: float) -> None:
        """``run(sim, until)`` as slices, with heartbeats between them.

        Each slice aims at a quarter of the heartbeat interval at the
        virtual-time rate the previous slice measured, growing at most
        twofold per slice so an idle stretch cannot make the next slice
        swallow a busy one, and never shorter than :data:`MIN_SLICE`.
        """
        step = MIN_SLICE
        while True:
            start, before = sim.now, sim.events_processed
            end = min(until, start + step)
            w0 = time.perf_counter()
            run(sim, end)
            wall = time.perf_counter()
            self._events_done += sim.events_processed - before
            if wall - self._last_beat >= self.interval:
                self._last_beat = wall
                self._write(self.sample(sim, until))
            if sim.stopped or end >= until:
                return
            rate = (end - start) / max(wall - w0, 1e-9)
            step = max(MIN_SLICE, min(2 * step, rate * self.interval / 4))

    # -- sampling --------------------------------------------------------
    def sample(
        self, sim: Optional[Any] = None, until: Optional[float] = None
    ) -> Dict[str, Any]:
        """One heartbeat record for ``sim`` running to ``until``."""
        wall = time.perf_counter() - self._t0
        vt = sim.now if sim is not None else None
        events = self._events_done
        rec: Dict[str, Any] = {
            "kind": HEARTBEAT,
            "exp": self.exp_id,
            "wall": round(wall, 3),
            "events": events,
        }
        if vt is not None:
            rec["vt"] = round(vt, 6)
        if until is not None and until != inf:
            rec["vt_end"] = round(until, 6)
        if self._last is not None:
            last_wall, last_vt, last_events = self._last
            dw = wall - last_wall
            if dw > 0:
                rec["eps"] = int((events - last_events) / dw)
                if vt is not None and last_vt is not None and vt >= last_vt:
                    vrate = (vt - last_vt) / dw
                    if until is not None and until != inf and vrate > 1e-12:
                        rec["eta"] = round((until - vt) / vrate, 1)
        self._last = (wall, vt, events)
        return rec

    def _write(self, rec: Dict[str, Any]) -> None:
        if self._out is None:
            return
        try:
            self._out.write(json.dumps(rec, separators=(",", ":")) + "\n")
            self._out.flush()
        except (ValueError, OSError):
            self._out = None  # pipe gone: parent died, stop quietly


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def _fmt_count(n: float) -> str:
    if n >= 1e6:
        return f"{n/1e6:.1f}M"
    if n >= 1e3:
        return f"{n/1e3:.0f}k"
    return f"{n:.0f}"


class ProgressBoard:
    """Thread-safe sink for worker lifecycle + heartbeat records.

    Appends every record (stamped with a wall-clock ``ts``) to
    ``progress.jsonl`` and, when ``emit`` is given, renders per-worker
    status lines, rate-limited per experiment so a many-worker sweep
    stays readable.  The file is truncated at ``sweep_begin`` — it
    describes the *current* (or most recent) sweep, which is exactly
    what the dashboard's live-run card wants.
    """

    def __init__(
        self,
        path: Optional[Path] = None,
        emit: Optional[Emit] = None,
        line_interval: float = 2.0,
    ):
        self.path = Path(path) if path is not None else None
        self._emit = emit
        self.line_interval = line_interval
        self._lock = threading.Lock()
        self._last_line: Dict[str, float] = {}
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("")

    def _record(self, rec: Dict[str, Any]) -> None:
        rec = dict(rec)
        rec["ts"] = round(time.time(), 3)
        with self._lock:
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as f:
                    f.write(json.dumps(rec, separators=(",", ":")) + "\n")

    def _say(self, line: str) -> None:
        if self._emit is not None:
            self._emit(line)

    # -- lifecycle -------------------------------------------------------
    def sweep_begin(
        self,
        selector: str,
        scale: float,
        jobs: int,
        pending: List[str],
        cached: List[str],
    ) -> None:
        self._record(
            {
                "kind": "sweep.begin",
                "selector": selector,
                "scale": scale,
                "jobs": jobs,
                "pending": list(pending),
                "cached": list(cached),
            }
        )

    def worker_start(self, exp_id: str) -> None:
        self._record({"kind": "sweep.worker_start", "exp": exp_id})

    def heartbeat(self, exp_id: str, rec: Dict[str, Any]) -> None:
        self._record(rec)
        now = time.monotonic()
        with self._lock:
            last = self._last_line.get(exp_id, 0.0)
            if now - last < self.line_interval:
                return
            self._last_line[exp_id] = now
        self._say(self.format_line(exp_id, rec))

    def worker_done(self, exp_id: str, seconds: float) -> None:
        self._record(
            {"kind": "sweep.worker_done", "exp": exp_id, "seconds": round(seconds, 3)}
        )

    def worker_failed(self, exp_id: str, error: str) -> None:
        self._record({"kind": "sweep.worker_failed", "exp": exp_id, "error": error})

    def sweep_end(self, seconds: float, executed: int, failed: int) -> None:
        self._record(
            {
                "kind": "sweep.end",
                "seconds": round(seconds, 3),
                "executed": executed,
                "failed": failed,
            }
        )

    # -- rendering -------------------------------------------------------
    @staticmethod
    def format_line(exp_id: str, rec: Dict[str, Any]) -> str:
        """One human status line from a heartbeat record."""
        parts = [f"[progress] {exp_id:<26}"]
        vt, vt_end = rec.get("vt"), rec.get("vt_end")
        if vt is not None and vt_end:
            pct = min(100.0, 100.0 * vt / vt_end) if vt_end > 0 else 0.0
            parts.append(f"vt {vt:7.3f}/{vt_end:.3f}s ({pct:3.0f}%)")
        elif vt is not None:
            parts.append(f"vt {vt:7.3f}s")
        if rec.get("eps") is not None:
            parts.append(f"{_fmt_count(rec['eps'])} ev/s")
        if rec.get("events") is not None:
            parts.append(f"{_fmt_count(rec['events'])} events")
        if rec.get("eta") is not None:
            parts.append(f"eta {rec['eta']:.0f}s")
        parts.append(f"wall {rec.get('wall', 0.0):.1f}s")
        return "  ".join(parts)


def read_progress(path: Path) -> Optional[Dict[str, Any]]:
    """Fold a ``progress.jsonl`` feed into the dashboard's live-run view.

    Returns ``None`` when the file is missing/empty, else::

        {"begin": {...}, "end": {...} | None, "workers":
            {exp: {"status": "running|done|failed",
                   "last": <latest heartbeat or lifecycle rec>,
                   "seconds": ..., "error": ...}},
         "ts": <latest record ts>}
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (FileNotFoundError, OSError):
        return None
    begin: Optional[Dict[str, Any]] = None
    end: Optional[Dict[str, Any]] = None
    workers: Dict[str, Dict[str, Any]] = {}
    latest_ts: Optional[float] = None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except ValueError:
            continue  # mid-write truncation: the feed is live by design
        if not isinstance(rec, dict):
            continue
        ts = rec.get("ts")
        if isinstance(ts, (int, float)):
            latest_ts = ts if latest_ts is None else max(latest_ts, ts)
        kind = rec.get("kind")
        exp = rec.get("exp")
        if kind == "sweep.begin":
            begin = rec
        elif kind == "sweep.end":
            end = rec
        elif exp:
            w = workers.setdefault(exp, {"status": "running"})
            if kind == "sweep.worker_done":
                w["status"] = "done"
                w["seconds"] = rec.get("seconds")
            elif kind == "sweep.worker_failed":
                w["status"] = "failed"
                w["error"] = rec.get("error")
            elif kind == HEARTBEAT:
                w["last"] = rec
    if begin is None and not workers:
        return None
    return {"begin": begin, "end": end, "workers": workers, "ts": latest_ts}
