"""The simulation-result digest the golden tests and perfbench compare
results by."""

from repro.perf.harness import result_digest


class TestResultDigest:
    def test_key_order_is_canonicalised(self):
        assert result_digest({"a": 1, "b": 2}) \
            == result_digest({"b": 2, "a": 1})

    def test_content_changes_digest(self):
        assert result_digest({"a": 1}) != result_digest({"a": 2})
