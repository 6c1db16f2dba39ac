"""Unit tests for the RPL014 engine (repro.analysis.blocking) driven
through hand-built :class:`ProjectIndex` instances: blocking calls found
directly or through exact call edges into sync helpers, offloads that
create no call edge, and scoping to the statements that run in the
async function's own frame."""

import ast
import textwrap

from repro.analysis.blocking import check_blocking_calls
from repro.analysis.callgraph import ProjectIndex


def index_of(**sources):
    """ProjectIndex over {relpath_stem: source} modules."""
    return ProjectIndex(
        [(f"{name.replace('__', '/')}.py",
          ast.parse(textwrap.dedent(src)))
         for name, src in sources.items()])


def blocking(**sources):
    return check_blocking_calls(index_of(**sources))


class TestBlockingCalls:
    def test_direct_sleep_flagged(self):
        (finding,) = blocking(serve__poll="""
        import time


        async def poll():
            time.sleep(1)
        """)
        assert "'time.sleep()'" in finding.message

    def test_propagates_through_sync_helper(self):
        (finding,) = blocking(serve__poll="""
        import time


        def nap():
            time.sleep(1)


        async def poll():
            nap()
        """)
        assert "reached via 'nap'" in finding.message

    def test_propagates_through_import_edge(self):
        # The helper lives in another module: the ``from repro.x
        # import f`` edge carries the summary across files.
        findings = blocking(
            serve__helpers="""
            import time


            def nap():
                time.sleep(1)
            """,
            serve__poll="""
            from repro.serve.helpers import nap


            async def poll():
                nap()
            """)
        assert [f.relpath for f in findings] == ["serve/poll.py"]
        assert "reached via 'nap'" in findings[0].message

    def test_to_thread_offload_is_clean(self):
        assert blocking(serve__poll="""
        import asyncio
        import time


        async def poll():
            await asyncio.to_thread(time.sleep, 1)
        """) == []

    def test_async_callee_does_not_propagate(self):
        # An async callee has its own findings; the caller awaiting it
        # is not itself blocking.
        findings = blocking(serve__poll="""
        import time


        async def inner():
            time.sleep(1)


        async def outer():
            await inner()
        """)
        assert [f.message.split("'")[3] for f in findings] == ["inner"]

    def test_nested_sync_def_handed_to_a_thread_is_clean(self):
        # The nested def's body runs in the worker thread, not in
        # poll's frame: only a call to it would block the loop.
        assert blocking(serve__poll="""
        import asyncio
        import time


        async def poll():
            def nap():
                time.sleep(1)

            await asyncio.to_thread(nap)
        """) == []

    def test_sleep_in_a_nested_finally_is_found(self):
        (finding,) = blocking(serve__poll="""
        import time


        async def poll(flag, lock):
            if flag:
                with lock:
                    try:
                        pass
                    finally:
                        time.sleep(1)
        """)
        assert "'time.sleep()'" in finding.message
        assert finding.line == 11
