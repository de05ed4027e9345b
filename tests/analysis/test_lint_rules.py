"""Per-rule fixture tests: one true positive and one near-miss
negative per checker, against the miniature fixtures/analysis.toml."""

from pathlib import Path

import pytest

from repro.analysis.config import load_config
from repro.analysis.engine import run_lint

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="module")
def config():
    return load_config(FIXTURES / "analysis.toml")


def lint(config, *names):
    return run_lint([FIXTURES / name for name in names],
                    config=config, root=FIXTURES)


def line_of(name, needle):
    """1-based line number of the first fixture line containing needle."""
    for number, text in enumerate(
            (FIXTURES / name).read_text().splitlines(), 1):
        if needle in text:
            return number
    raise AssertionError(f"{needle!r} not found in {name}")


class TestLockOrder:
    def test_inversion_reported_with_full_chain(self, config):
        result = lint(config, "lockorder_bad.py")
        assert [f.rule for f in result.new] == ["lock-order"]
        finding = result.new[0]
        assert finding.key == (
            "lock-order:lockorder_bad.py:Widget.backwards:inner->outer")
        assert "inverting the declared order" in finding.message
        # Full acquisition chain, file:line for both edges plus the hop.
        assert [(hop["file"], hop["line"]) for hop in finding.chain] == [
            ("lockorder_bad.py", line_of("lockorder_bad.py",
                                         "with self._inner:")),
            ("lockorder_bad.py", line_of("lockorder_bad.py",
                                         "self._take_outer()")),
            ("lockorder_bad.py", line_of("lockorder_bad.py",
                                         "with self._outer:")),
        ]
        assert finding.chain[0]["note"] == "inner acquired here"
        assert finding.chain[-1]["note"] == "Widget._take_outer acquires outer"

    def test_forward_nesting_through_helper_is_clean(self, config):
        result = lint(config, "lockorder_ok.py")
        assert result.findings == []

    def test_base_class_locks_resolve_in_subclass_module(self, config,
                                                         tmp_path):
        # The fixture config declares both locks on Widget only; Gadget
        # lives in another module and inherits the locks and the helper.
        (tmp_path / "base.py").write_text(
            "import threading\n\n\n"
            "class Widget:\n"
            "    def __init__(self):\n"
            "        self._outer = threading.Lock()\n"
            "        self._inner = threading.Lock()\n\n"
            "    def _take_outer(self):\n"
            "        with self._outer:\n"
            "            pass\n")
        (tmp_path / "sub.py").write_text(
            "from base import Widget\n\n\n"
            "class Gadget(Widget):\n"
            "    def backwards(self):\n"
            "        with self._inner:\n"
            "            self._take_outer()\n")
        result = run_lint([tmp_path], config=config, root=tmp_path)
        assert [f.key for f in result.new] == [
            "lock-order:sub.py:Gadget.backwards:inner->outer"]

    def test_element_of_a_lock_list_resolves_to_the_list_lock(
            self, config, tmp_path):
        # One lock per shard, held in a list: `with self._inner[i]:`
        # acquires the lock the `_inner` attribute declares.
        (tmp_path / "listed.py").write_text(
            "import threading\n\n\n"
            "class Widget:\n"
            "    def __init__(self):\n"
            "        self._outer = threading.Lock()\n"
            "        self._inner = [threading.Lock() for _ in range(2)]\n\n"
            "    def _take_outer(self):\n"
            "        with self._outer:\n"
            "            pass\n\n"
            "    def backwards(self, shard):\n"
            "        with self._inner[shard]:\n"
            "            self._take_outer()\n")
        result = run_lint([tmp_path], config=config, root=tmp_path)
        assert [f.key for f in result.new] == [
            "lock-order:listed.py:Widget.backwards:inner->outer"]


class TestGuardedAttribute:
    def test_unlocked_write_flagged(self, config):
        result = lint(config, "guarded_bad.py")
        assert [f.rule for f in result.new] == ["guarded-attribute"]
        finding = result.new[0]
        assert finding.key == (
            "guarded-attribute:guarded_bad.py:Counter.bump:Counter.value")
        assert finding.line == line_of("guarded_bad.py", "self.value += 1")
        assert "'counter.lock'" in finding.message
        # Chain points back at the guarded-by declaration site.
        assert finding.chain[0]["line"] == line_of(
            "guarded_bad.py", "guarded-by: counter.lock")

    def test_locked_write_and_locked_suffix_are_clean(self, config):
        result = lint(config, "guarded_ok.py")
        assert result.findings == []


class TestBlockingUnderLock:
    def test_transitive_send_under_routing_lock_flagged(self, config):
        result = lint(config, "blocking_bad.py")
        assert [f.rule for f in result.new] == ["blocking-under-lock"]
        finding = result.new[0]
        assert finding.key == (
            "blocking-under-lock:blocking_bad.py:Router.publish"
            ":route.lock:send")
        assert "blocking call send()" in finding.message
        assert [(hop["file"], hop["line"]) for hop in finding.chain] == [
            ("blocking_bad.py", line_of("blocking_bad.py",
                                        "with self._route_lock:")),
            ("blocking_bad.py", line_of("blocking_bad.py",
                                        "self._push(payload)")),
            ("blocking_bad.py", line_of("blocking_bad.py",
                                        "self._conn.send(payload)")),
        ]

    def test_send_after_lock_release_is_clean(self, config):
        result = lint(config, "blocking_ok.py")
        assert result.findings == []


class TestExceptionTaxonomy:
    def test_raw_valueerror_flagged(self, config):
        result = lint(config, "taxonomy_bad.py")
        assert [f.rule for f in result.new] == ["exception-taxonomy"]
        finding = result.new[0]
        assert finding.key == (
            "exception-taxonomy:taxonomy_bad.py:parse_scale:ValueError")
        assert "cannot be baselined" in finding.message

    def test_taxonomy_subclass_allowed_and_reraise_are_clean(self, config):
        result = lint(config, "taxonomy_ok.py")
        assert result.findings == []


class TestInlineSuppression:
    def test_ignore_comment_drops_the_finding(self, config, tmp_path):
        module = tmp_path / "suppressed.py"
        module.write_text(
            "def bad():\n"
            "    raise ValueError('x')"
            "  # analysis: ignore[exception-taxonomy]\n"
        )
        result = run_lint([module], config=config, root=tmp_path)
        assert result.findings == []

    def test_ignore_comment_is_rule_specific(self, config, tmp_path):
        module = tmp_path / "suppressed.py"
        module.write_text(
            "def bad():\n"
            "    raise ValueError('x')  # analysis: ignore[lock-order]\n"
        )
        result = run_lint([module], config=config, root=tmp_path)
        assert [f.rule for f in result.new] == ["exception-taxonomy"]
