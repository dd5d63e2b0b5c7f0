"""Tests for ``analyze_package``'s per-module facts cache.

The cache keys on the module's source hash, so an on-disk edit between
two ``analyze_package`` calls must re-extract exactly the edited module
while every untouched module is served as the *same* facts object.
"""

import sys
import textwrap

import pytest

from repro.analysis.system_model import analyze_package, clear_facts_cache


@pytest.fixture
def temp_package(tmp_path, monkeypatch):
    """An importable two-module package under a temp directory."""
    package = tmp_path / "factscachepkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "alpha.py").write_text(
        textwrap.dedent(
            """
            class Alpha:
                def read(self):
                    return self.env.disk_read("/alpha")
            """
        )
    )
    (package / "beta.py").write_text(
        textwrap.dedent(
            """
            class Beta:
                def write(self):
                    self.env.disk_write("/beta", b"x")
            """
        )
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    clear_facts_cache()
    yield package
    clear_facts_cache()
    for name in [m for m in sys.modules if m.startswith("factscachepkg")]:
        del sys.modules[name]


def facts_by_module(model):
    return {facts.module: facts for facts in model.modules}


class TestFactsCache:
    def test_unchanged_modules_are_served_as_identical_objects(self, temp_package):
        first = facts_by_module(analyze_package("factscachepkg"))
        second = facts_by_module(analyze_package("factscachepkg"))
        assert set(first) == set(second)
        for name in first:
            assert second[name] is first[name]

    def test_editing_one_module_reanalyzes_only_that_module(self, temp_package):
        first = facts_by_module(analyze_package("factscachepkg"))
        (temp_package / "alpha.py").write_text(
            textwrap.dedent(
                """
                class Alpha:
                    def read(self):
                        return self.env.disk_read("/alpha-v2")

                    def sync(self):
                        self.env.disk_sync("/alpha-v2")
                """
            )
        )
        second = facts_by_module(analyze_package("factscachepkg"))
        alpha = "factscachepkg.alpha"
        beta = "factscachepkg.beta"
        assert second[alpha] is not first[alpha]
        assert second[beta] is first[beta]
        # The re-extracted facts reflect the edit.
        assert {env.op for env in second[alpha].env_calls} == {
            "disk_read",
            "disk_sync",
        }

    def test_sourceless_module_is_skipped_with_usable_model(self, temp_package):
        import factscachepkg.beta as beta_module

        del beta_module.__file__
        try:
            with pytest.warns(UserWarning, match="no source file"):
                model = analyze_package("factscachepkg")
        finally:
            beta_module.__file__ = str(temp_package / "beta.py")
        # Beta is skipped, alpha still analyzes into a usable model.
        assert set(facts_by_module(model)) == {"factscachepkg.alpha"}
        assert {env.op for env in model.env_calls} == {"disk_read"}
        assert model.functions_named("read")


class TestFactsDiskTier:
    """The ``facts/`` tier of the run cache's directory: a warm process
    skips the AST walk, a changed source does not."""

    @pytest.fixture
    def disk_cache(self, tmp_path):
        from repro.cache import runcache

        cache = runcache.configure(disk_dir=str(tmp_path / "cache"))
        yield cache
        runcache.reset()

    @pytest.fixture
    def extractions(self, monkeypatch):
        from repro.analysis import system_model

        seen = []
        real = system_model.extract_module_facts

        def counting(module_name, file_path, source):
            seen.append(module_name)
            return real(module_name, file_path, source)

        monkeypatch.setattr(system_model, "extract_module_facts", counting)
        return seen

    def test_cold_process_is_served_from_disk(
        self, temp_package, disk_cache, extractions
    ):
        first = facts_by_module(analyze_package("factscachepkg"))
        assert sorted(extractions) == ["factscachepkg.alpha", "factscachepkg.beta"]
        (segment,) = facts_segments(disk_cache)
        data = segment.read_bytes()
        assert data.count(b"factscachepkg.alpha") and data.count(b"factscachepkg.beta")
        clear_facts_cache()  # what a fresh process starts with
        disk_cache.close()
        del extractions[:]
        second = facts_by_module(analyze_package("factscachepkg"))
        assert extractions == []
        assert second == first and second["factscachepkg.alpha"] is not first["factscachepkg.alpha"]

    def test_edited_source_is_reextracted_and_overwrites(
        self, temp_package, disk_cache, extractions
    ):
        analyze_package("factscachepkg")
        (temp_package / "alpha.py").write_text(
            "class Alpha:\n    def sync(self):\n        self.env.disk_sync('/a2')\n"
        )
        clear_facts_cache()
        disk_cache.close()
        del extractions[:]
        model = analyze_package("factscachepkg")
        assert extractions == ["factscachepkg.alpha"]
        assert {call.op for call in model.env_calls} == {"disk_sync", "disk_write"}
        # The stale record is still there; the one appended after it (in
        # a later segment) supersedes it for every later process.
        assert len(facts_segments(disk_cache)) == 2
        clear_facts_cache()
        disk_cache.close()
        del extractions[:]
        analyze_package("factscachepkg")
        assert extractions == []

    def test_corrupt_entry_degrades_with_one_warning(
        self, temp_package, disk_cache, extractions, cache_counters
    ):
        first = facts_by_module(analyze_package("factscachepkg"))
        (segment,) = facts_segments(disk_cache)
        # Same length, so both records' headers stay where they are.
        segment.write_bytes(segment.read_bytes().replace(b"disk_", b"risk_"))
        clear_facts_cache()
        disk_cache.close()
        del extractions[:]
        cache_counters.mark()
        with pytest.warns(RuntimeWarning, match="skipping facts-cache entry") as caught:
            second = facts_by_module(analyze_package("factscachepkg"))
        assert len([w for w in caught if "facts-cache" in str(w.message)]) == 1
        assert sorted(extractions) == ["factscachepkg.alpha", "factscachepkg.beta"]
        assert second == first
        assert cache_counters["disk_errors"] == 2

    def test_no_disk_cache_no_files(self, temp_package, tmp_path, extractions):
        analyze_package("factscachepkg")
        assert not (tmp_path / "cache").exists()
        assert len(extractions) == 2


def facts_segments(cache):
    import pathlib

    from repro.cache.disk import _SUFFIX

    return sorted((pathlib.Path(cache.disk_dir) / "facts").glob("*" + _SUFFIX))
