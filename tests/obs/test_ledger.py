"""Tests for the persistent run ledger (``repro.obs.ledger``)."""

import dataclasses
import json

import pytest

from repro.obs import ledger


@dataclasses.dataclass
class Outcome:
    case_id: str
    success: bool
    rounds: int
    seconds: float
    coverage: dict = None
    metrics: dict = None
    params: dict = None


class TestMakeEntry:
    def test_entry_shape(self):
        entry = ledger.make_entry(
            case_id="f1",
            strategy="anduril",
            success=True,
            rounds=3,
            seconds=0.25,
            seed=7,
            jobs=2,
            sha="abc1234",
        )
        assert entry["schema"] == ledger.SCHEMA_VERSION
        assert entry["case_id"] == "f1"
        assert entry["strategy"] == "anduril"
        assert entry["success"] is True
        assert entry["rounds"] == 3
        assert entry["seconds"] == 0.25
        assert entry["seed"] == 7
        assert entry["jobs"] == 2
        assert entry["git_sha"] == "abc1234"
        assert "recorded_at" in entry
        assert "coverage" not in entry  # only present when provided

    def test_coverage_and_metrics_pass_through(self):
        entry = ledger.make_entry(
            case_id="f1",
            strategy="anduril",
            success=True,
            rounds=1,
            seconds=0.1,
            coverage={"space": 10, "planned": 2},
            metrics={"fir.requests": 5.0},
        )
        assert entry["coverage"] == {"space": 10, "planned": 2}
        assert entry["metrics"] == {"fir.requests": 5.0}

    def test_entry_from_outcome_duck_types(self):
        outcome = Outcome("f2", False, 40, 1.5, coverage={"space": 3})
        entry = ledger.entry_from_outcome(
            outcome, strategy="random", seed=1, jobs=1, sha="deadbee"
        )
        assert entry["case_id"] == "f2"
        assert entry["strategy"] == "random"
        assert entry["success"] is False
        assert entry["coverage"] == {"space": 3}

    def test_params_say_which_search_without_changing_its_keys(self):
        narrow, wide = (
            ledger.entry_from_outcome(
                Outcome("f1", True, 3, 0.5, params={"fault_dims": dims}),
                strategy="anduril", sha="abc1234",
            )
            for dims in ("exceptions", "all")
        )
        assert (narrow["params"], wide["params"]) == (
            {"fault_dims": "exceptions"}, {"fault_dims": "all"},
        )
        assert ledger.entry_key(narrow) == ledger.entry_key(wide)
        assert ledger.compaction_key(narrow) == ledger.compaction_key(wide)
        assert narrow["schema"] == ledger.SCHEMA_VERSION == 1

    def test_entry_key_identity(self):
        entry = ledger.make_entry(
            case_id="f1",
            strategy="anduril",
            success=True,
            rounds=1,
            seconds=0.1,
            seed=3,
            jobs=4,
            sha="abc",
        )
        assert ledger.entry_key(entry) == ("abc", "f1", "anduril", 3, 4)

    def test_git_sha_is_cached_and_nonempty(self):
        assert ledger.git_sha()
        assert ledger.git_sha() is ledger.git_sha()


class TestGitSha:
    """``git_sha`` keys every cache fingerprint in every process, so it
    reads ``.git`` itself; ``git rev-parse`` is only the fallback."""

    SHA = "0123456789abcdef0123456789abcdef01234567"

    @pytest.fixture
    def checkout(self, tmp_path, monkeypatch):
        """A source tree two levels under a bare-bones ``.git``."""
        import subprocess

        root = tmp_path / "checkout"
        (root / "pkg" / "src").mkdir(parents=True)
        monkeypatch.setattr(ledger, "_REPO_ROOT", str(root / "pkg" / "src"))
        monkeypatch.setattr(ledger, "_GIT_SHA", None)
        asked = []

        def fake_run(argv, **kwargs):
            asked.append(argv)
            raise OSError("no git here")

        monkeypatch.setattr(subprocess, "run", fake_run)
        return root, asked

    def test_loose_ref(self, checkout):
        root, asked = checkout
        (root / ".git" / "refs" / "heads").mkdir(parents=True)
        (root / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
        (root / ".git" / "refs" / "heads" / "main").write_text(self.SHA + "\n")
        assert ledger.git_sha() == self.SHA[:7]
        assert asked == []

    def test_packed_ref(self, checkout):
        root, asked = checkout
        (root / ".git").mkdir()
        (root / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
        (root / ".git" / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted\n"
            f"{'f' * 40} refs/heads/other\n{self.SHA} refs/heads/main\n"
        )
        assert ledger.git_sha() == self.SHA[:7]
        assert asked == []

    def test_detached_head(self, checkout):
        root, asked = checkout
        (root / ".git").mkdir()
        (root / ".git" / "HEAD").write_text(self.SHA + "\n")
        assert ledger.git_sha() == self.SHA[:7]
        assert asked == []

    def test_unfamiliar_layout_asks_git_then_gives_up(self, checkout):
        root, asked = checkout
        # A worktree's ``.git`` is a file pointing elsewhere.
        (root / ".git").write_text("gitdir: /somewhere/else\n")
        assert ledger.git_sha() == "unknown"
        assert [argv[:2] for argv in asked] == [["git", "rev-parse"]]

    def test_unborn_branch_asks_git(self, checkout):
        root, asked = checkout
        (root / ".git").mkdir()
        (root / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
        (root / ".git" / "packed-refs").write_text("")
        assert ledger.git_sha() == "unknown"
        assert len(asked) == 1

    def test_outside_a_checkout_is_unknown_without_asking(self, checkout, tmp_path):
        _root, asked = checkout
        # No ancestor of the temp tree holds a ``.git``.
        probe = tmp_path
        while str(probe) != probe.anchor:
            if (probe / ".git").exists():
                pytest.skip("the temp directory sits inside a checkout")
            probe = probe.parent
        assert ledger.git_sha() == "unknown"
        assert asked == []

    def test_agrees_with_git_in_this_checkout(self):
        import subprocess

        try:
            short = subprocess.run(
                ["git", "rev-parse", "--short=7", "HEAD"],
                cwd=ledger._REPO_ROOT, capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pytest.skip("not a git checkout")
        assert ledger._read_head_sha()[:7] == short


class TestAppendAndRead:
    def _entry(self, case_id="f1", **overrides):
        fields = dict(
            case_id=case_id,
            strategy="anduril",
            success=True,
            rounds=2,
            seconds=0.2,
            sha="abc",
        )
        fields.update(overrides)
        return ledger.make_entry(**fields)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        written = [self._entry("f1"), self._entry("f2", success=False)]
        assert ledger.append_entries(written, path=str(path)) == str(path)
        assert ledger.read_entries(str(path)) == written

    def test_append_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deeply" / "nested" / "ledger.jsonl"
        ledger.append_entries([self._entry()], path=str(path))
        assert path.exists()

    def test_append_is_append_only(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger.append_entries([self._entry("f1")], path=path)
        ledger.append_entries([self._entry("f2")], path=path)
        cases = [e["case_id"] for e in ledger.read_entries(path)]
        assert cases == ["f1", "f2"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert ledger.read_entries(str(tmp_path / "absent.jsonl")) == []

    def test_reader_skips_junk_and_newer_schemas_with_warning(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        good = self._entry()
        lines = [
            "",                                        # blank
            "{not json",                               # malformed
            json.dumps(["not", "an", "object"]),       # wrong shape
            json.dumps({**good, "schema": ledger.SCHEMA_VERSION + 1}),
            json.dumps(good, sort_keys=True),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="skipped 3"):
            entries = ledger.read_entries(str(path))
        assert entries == [good]

    def test_reader_skips_unusable_schema_tags(self, tmp_path):
        """``"schema": null`` / non-numeric tags are skipped, not raised."""
        path = tmp_path / "ledger.jsonl"
        good = self._entry()
        lines = [
            json.dumps({**good, "schema": None}),
            json.dumps({**good, "schema": "two"}),
            json.dumps(good, sort_keys=True),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="skipped 2"):
            entries = ledger.read_entries(str(path))
        assert entries == [good]

    def test_lines_are_sorted_key_json(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger.append_entries([self._entry()], path=str(path))
        line = path.read_text(encoding="utf-8").strip()
        keys = list(json.loads(line))
        assert keys == sorted(keys)


class TestFaultSpecCompatibility:
    """The fault-spec generalization must not disturb the ledger schema:
    raise specs serialize as bare exception names (old-schema lines stay
    readable unchanged) and corrupt specs ride inside coverage payloads
    without a schema bump."""

    def test_old_schema_line_reads_back_unchanged(self, tmp_path):
        # A line written before the fault-spec generalization: same
        # schema version, coverage triples with bare exception names.
        old_line = {
            "schema": 1,
            "recorded_at": "2026-01-01T00:00:00+00:00",
            "git_sha": "0ldsha",
            "case_id": "f1",
            "strategy": "anduril",
            "seed": 0,
            "jobs": 1,
            "success": True,
            "rounds": 3,
            "seconds": 0.5,
            "coverage": {"space_size": 10, "planned": 4},
        }
        path = tmp_path / "ledger.jsonl"
        path.write_text(
            json.dumps(old_line, sort_keys=True) + "\n", encoding="utf-8"
        )
        new_entry = ledger.make_entry(
            case_id="f23",
            strategy="anduril",
            success=True,
            rounds=2,
            seconds=0.1,
            sha="n3wsha",
            coverage={"space_size": 12, "planned": 5},
        )
        ledger.append_entries([new_entry], path=str(path))
        entries = ledger.read_entries(str(path))
        assert entries == [old_line, new_entry]
        assert ledger.entry_key(entries[0]) == ("0ldsha", "f1", "anduril", 0, 1)

    def test_corrupt_spec_coverage_round_trips(self, tmp_path):
        coverage = {
            "space_size": 20,
            "tried": [
                ["repro/systems/minizk/a.py:7:serve:disk_read",
                 "IOException", 1],
                ["repro/systems/minizk/a.py:7:serve:disk_read",
                 "corrupt:truncate_read", 1],
            ],
        }
        entry = ledger.make_entry(
            case_id="f25",
            strategy="anduril",
            success=True,
            rounds=1,
            seconds=0.1,
            sha="abc",
            coverage=coverage,
        )
        path = tmp_path / "ledger.jsonl"
        ledger.append_entries([entry], path=str(path))
        (read,) = ledger.read_entries(str(path))
        assert read["coverage"] == coverage


class TestCompaction:
    """Keep-last-N compaction and the append-time growth guard."""

    @staticmethod
    def _entry(case_id, sha, strategy="anduril", seed=0, jobs=1):
        return ledger.make_entry(
            case_id=case_id,
            strategy=strategy,
            success=True,
            rounds=3,
            seconds=1.0,
            seed=seed,
            jobs=jobs,
            sha=sha,
        )

    def test_compaction_key_ignores_git_sha(self):
        a = self._entry("f1", "aaa")
        b = self._entry("f1", "bbb")
        assert ledger.compaction_key(a) == ledger.compaction_key(b)
        assert ledger.entry_key(a) != ledger.entry_key(b)

    def test_compact_keeps_last_n_per_key_in_order(self):
        entries = [
            self._entry("f1", sha) for sha in ("a", "b", "c", "d")
        ] + [self._entry("f2", "a")]
        compacted = ledger.compact_entries(entries, keep_last=2)
        shas = [
            e["git_sha"] for e in compacted if e["case_id"] == "f1"
        ]
        assert shas == ["c", "d"]  # newest win, order preserved
        assert sum(1 for e in compacted if e["case_id"] == "f2") == 1

    def test_distinct_seed_jobs_are_separate_keys(self):
        entries = [
            self._entry("f1", "a", seed=0),
            self._entry("f1", "a", seed=1),
            self._entry("f1", "a", jobs=4),
        ]
        assert len(ledger.compact_entries(entries, keep_last=1)) == 3

    def test_rewrite_is_atomic_and_leaves_no_temp(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger.append_entries([self._entry("f1", "a")], path=path)
        ledger.rewrite_entries([self._entry("f2", "b")], path=path)
        (entry,) = ledger.read_entries(path)
        assert entry["case_id"] == "f2"
        assert not (tmp_path / "ledger.jsonl.tmp").exists()
