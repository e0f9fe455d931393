import threading
import time

from ftsdn.harness.core import Crashed
from ftsdn.harness.runtime_socket import SocketExecutor
from ftsdn.trace import TraceLog


def test_executor_records_an_escaping_exception_and_keeps_running():
    trace = TraceLog(clock=time.time_ns)
    executor = SocketExecutor("n0", trace)
    done = threading.Event()

    def fails() -> None:
        raise ValueError("boom")

    def dies() -> None:
        raise Crashed()

    try:
        executor.post(fails)
        executor.post(dies)
        executor.post(done.set)
        assert done.wait(2.0)
    finally:
        executor.stop()
    errors = [(r["actor"], r["detail"]) for r in trace.as_dicts() if r["kind"] == "executor-error"]
    assert errors == [("n0", {"error": "ValueError('boom')"})]
    assert len(trace.as_dicts()) == 1  # a fault hook's crash is not an error
