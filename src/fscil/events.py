"""Run event log: one JSON object per line, {phase, session, epoch, key, value}."""

from __future__ import annotations

import json
from array import array
from collections.abc import Sequence


class EventRecords(Sequence):
    """An `EventLog`'s records, each the dict {phase, session, epoch, key, value} built when read
    from four floats (a code for its (phase, key), session, epoch, value): 32 bytes a record where
    a dict takes about 200, so a caller that keeps many runs' records keeps little for each."""

    def __init__(self):
        self._names, self._rows = [], array("d")

    def append(self, phase: str, session: int, epoch: int, key: str, value: float):
        if (phase, key) not in self._names:
            self._names.append((phase, key))
        self._rows.extend((self._names.index((phase, key)), session, epoch, value))

    def __len__(self):
        return len(self._rows) // 4

    def __getitem__(self, i):
        i = range(len(self))[i]  # a list's negative indices and IndexError
        code, session, epoch, value = self._rows[4 * i : 4 * i + 4]
        phase, key = self._names[int(code)]
        return {"phase": phase, "session": int(session), "epoch": int(epoch), "key": key, "value": value}

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented


class EventLog:
    """Collects per-epoch records in memory and optionally writes them to a new JSONL file."""

    def __init__(self, path=None):
        self.path = path
        self.records = EventRecords()
        self._fh = open(path, "w") if path else None

    def emit(self, phase: str, session: int, epoch: int, key: str, value):
        self.records.append(phase, int(session), int(epoch), key, float(value))
        if self._fh is not None:
            self._fh.write(json.dumps(self.records[-1]) + "\n")
            self._fh.flush()

    def series(self, phase: str, key: str, session: int | None = None) -> list:
        return [
            r["value"]
            for r in self.records
            if r["phase"] == phase and r["key"] == key and (session is None or r["session"] == session)
        ]

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None
