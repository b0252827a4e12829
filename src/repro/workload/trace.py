"""Canonical JSONL workload traces: record a run, re-drive it exactly.

**Record**: every client operation (publish issue, query issue, query
completion/timeout) appends one canonical JSON line — sorted
keys, fixed field set, repr'd floats — so two identical runs produce
byte-identical trace files, and a digest comparison is a regression
oracle.

**Replay**: the ``issue`` ops of a recorded trace are scheduled at
their recorded times against a fresh deployment.  Replay draws
*nothing* from the workload RNG streams (the schedule and item choices
come from the trace), and workload streams are independent of the
network/protocol streams by the named-stream discipline — so a replay
on the same overlay seed reproduces the original completions, SLO
snapshot and trace bytes exactly.  The fuzzer's ``replay`` oracle and
CI's determinism job pin this.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

#: The "issue" ops replay re-drives.  The "outcome" ops (``query.ok``,
#: ``query.timeout``) exist to make the trace a complete oracle; a
#: replayed run regenerates them.
ISSUE_OPS = ("publish", "query")


@dataclass(slots=True)
class TraceOp:
    """One recorded workload operation."""

    t: float
    client: str
    op: str
    item: str
    #: latency for outcome ops (None for issues)
    latency: Optional[float] = None

    def to_json(self) -> str:
        record: Dict[str, object] = {
            "client": self.client,
            "item": self.item,
            "op": self.op,
            "t": self.t,
        }
        if self.latency is not None:
            record["latency"] = self.latency
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TraceOp":
        record = json.loads(line)
        return cls(
            t=float(record["t"]),
            client=record["client"],
            op=record["op"],
            item=record["item"],
            latency=record.get("latency"),
        )


class WorkloadTraceRecorder:
    """Append-only canonical trace of one workload run."""

    def __init__(self) -> None:
        self.ops: List[TraceOp] = []

    def record(
        self,
        t: float,
        client: str,
        op: str,
        item: str,
        latency: Optional[float] = None,
    ) -> None:
        self.ops.append(
            TraceOp(t=t, client=client, op=op, item=item, latency=latency)
        )

    # ------------------------------------------------------------------
    def lines(self) -> List[str]:
        """Canonical JSONL lines in record order."""
        return [op.to_json() for op in self.ops]

    def to_jsonl(self) -> str:
        body = "\n".join(self.lines())
        return body + "\n" if body else ""

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl())
        return path

    def digest(self) -> str:
        """SHA-256 of the canonical JSONL (the byte-identity oracle)."""
        return ops_digest(self.ops)

    def __len__(self) -> int:
        return len(self.ops)


def ops_digest(ops: Iterable[TraceOp]) -> str:
    """SHA-256 of the canonical JSONL of ``ops``."""
    body = "".join([op.to_json() + "\n" for op in ops])
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def load_trace_lines(source: Union[str, Path, Iterable[str]]) -> List[TraceOp]:
    """Parse a trace from a file path or an iterable of JSONL lines."""
    if isinstance(source, (str, Path)):
        lines: Iterable[str] = Path(source).read_text().splitlines()
    else:
        lines = source
    return [TraceOp.from_json(line) for line in lines if line.strip()]


def replay_ops(ops: Iterable[TraceOp]) -> List[TraceOp]:
    """The issue ops of a trace, in record order (what replay re-drives)."""
    return [op for op in ops if op.op in ISSUE_OPS]
