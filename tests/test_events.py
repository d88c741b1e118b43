import json
import tracemalloc

import numpy as np
import pytest

from fscil.events import EventLog


def _emit_some(log):
    emitted = []
    for session in range(3):
        for epoch in range(300):
            for key, value in (("loss", 1.0 / (epoch + 1) + session), ("lr", np.float64(0.5**session))):
                log.emit(phase="prediction_net", session=session, epoch=epoch, key=key, value=value)
                emitted.append({"phase": "prediction_net", "session": session, "epoch": epoch, "key": key, "value": float(value)})
    log.emit(phase="evaluate", session=np.int64(2), epoch=0, key="accuracy", value=97.5)
    emitted.append({"phase": "evaluate", "session": 2, "epoch": 0, "key": "accuracy", "value": 97.5})
    return emitted


def test_records_read_back_as_the_emitted_dicts(tmp_path):
    log = EventLog(tmp_path / "events.jsonl")
    emitted = _emit_some(log)
    log.close()
    records = log.records
    assert len(records) == len(emitted) and list(records) == emitted and records == emitted
    assert records[-1] == emitted[-1] and records[-1801] == emitted[0]
    assert all(type(r["session"]) is int and type(r["epoch"]) is int and type(r["value"]) is float for r in records)
    with pytest.raises(IndexError):
        records[len(emitted)]
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == emitted
    assert log.series("prediction_net", "lr", session=1) == [0.5] * 300
    other = EventLog(None)
    _emit_some(other)
    assert other.records == records and other.records != emitted[:-1]


def test_kept_records_cost_a_few_dozen_bytes_each():
    # a caller that keeps the records of many runs (the benchmark keeps every
    # repeat's) holds them in memory; as dicts they took about 200 bytes each
    n = 5000
    log = EventLog(None)
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    for i in range(n):
        log.emit(phase="prediction_net", session=i % 3, epoch=i, key=("loss", "lr")[i % 2], value=1.0 / (i + 1))
    per_record = (tracemalloc.get_traced_memory()[0] - before) / n
    tracemalloc.stop()
    assert len(log.records) == n and per_record < 48
