"""The self-healing campaign runtime, end to end.

Acceptance properties of the supervisor + journal integration in
``run_campaign`` (and the ``repro chaos`` exit-code semantics):

* a run that hangs past ``--task-timeout`` is killed, retried, and
  after ``--max-retries`` timed-out executions recorded with a
  ``quarantined`` verdict while the campaign *completes*;
* quarantined results are journaled but never cached;
* a campaign resumed from its journal re-executes only the missing
  runs and produces byte-identical reports;
* a journal or cache entry with a missing field is a miss: its run
  re-executes, and the report is still byte-identical;
* ``KeyboardInterrupt`` yields a partial report (contiguous prefix,
  ``interrupted=True``) whose journal resumes to byte-identity.
"""

import json
import time

import pytest

import repro.faults.campaign as campaign_mod
from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.faults.campaign import (
    ChaosRunResult,
    campaign_journal_meta,
    campaign_task_key,
    campaign_task_payload,
    generate_fault_configs,
    run_campaign,
)
from repro.parallel import CampaignJournal, RunCache, shutdown_pool

#: One algorithm, one seed: ten runs, one per fault shape.
SMALL = dict(
    algorithms=("abd",), n=5, f=1, value_bits=6, seeds=[0], num_ops=3
)

_REAL_TASK = campaign_mod._campaign_task


def _hang_on_drops(payload):
    """Real campaign task, except the 'drops' shape hangs forever."""
    if payload["config"]["name"] == "drops":
        time.sleep(60)
    return _REAL_TASK(payload)


_CALLS = {"n": 0, "limit": None}


def _interrupt_partway(payload):
    """Real campaign task that raises KeyboardInterrupt past a budget."""
    _CALLS["n"] += 1
    if _CALLS["limit"] is not None and _CALLS["n"] > _CALLS["limit"]:
        raise KeyboardInterrupt()
    return _REAL_TASK(payload)


def _small_meta(**overrides):
    params = dict(
        algorithms=["abd"],
        n=5,
        f=1,
        value_bits=6,
        seeds=[0],
        num_ops=3,
        max_ticks=60_000,
    )
    params.update(overrides)
    return campaign_journal_meta(**params)


#: ``repro chaos`` argv for the SMALL campaign, serial and uncached.
_SMALL_ARGV = [
    "chaos", "--algorithms", "abd", "--seeds", "1", "--ops", "3",
    "--out", "", "--no-cache", "--jobs", "1",
]

#: Every field ``ChaosRunResult.from_cache_dict`` reads without a
#: default, as a dotted path into one journaled result.
_REQUIRED_FIELDS = [
    "algorithm", "config", "invoked", "completed", "live", "safety_ok",
    "safety_reason", "diagnosis", "steps", "fault_stats", "crashes",
    "recoveries", "config.name",
    *(
        f"diagnosis.{key}"
        for key in (
            "verdict", "detail", "step", "pending_ops", "blocked_channels",
            "undelivered", "live_servers",
        )
    ),
]


@pytest.fixture(scope="module")
def journaled_cli_run(tmp_path_factory):
    """One uninterrupted journaled SMALL campaign through the CLI.

    Returns its exit code, journal lines and ``--json`` report text.
    """
    tmp = tmp_path_factory.mktemp("journaled")
    journal, report = tmp / "c.journal", tmp / "c.json"
    rc = cli_main(
        [*_SMALL_ARGV, "--journal", str(journal), "--json", str(report)]
    )
    return rc, journal.read_text().splitlines(), report.read_text()


def _record_executions(monkeypatch):
    """Run the real campaign task, recording each executed config name."""
    executed = []

    def counting_task(payload):
        executed.append(payload["config"]["name"])
        return _REAL_TASK(payload)

    monkeypatch.setattr(campaign_mod, "_campaign_task", counting_task)
    return executed


def _small_keys():
    return [
        campaign_task_key(
            campaign_task_payload("abd", config, 5, 1, 6, 3, 60_000)
        )
        for config in generate_fault_configs(1, [0])
    ]


class TestQuarantine:
    def test_hanging_run_quarantined_campaign_completes(
        self, tmp_path, monkeypatch
    ):
        shutdown_pool()
        monkeypatch.setattr(campaign_mod, "_campaign_task", _hang_on_drops)
        cache = RunCache(str(tmp_path / "cache"))
        journal = CampaignJournal.create(
            str(tmp_path / "c.journal"), _small_meta(task_timeout=0.4)
        )
        report = run_campaign(
            jobs=2,
            chunk=2,
            cache=cache,
            task_timeout=0.4,
            max_retries=2,
            journal=journal,
            **SMALL,
        )
        journal.close()
        shutdown_pool()

        quarantined = [r for r in report.results if r.quarantined]
        assert len(report.results) == 10  # the campaign completed
        assert [r.config.name for r in quarantined] == ["drops"]
        assert quarantined[0].verdict() == "quarantined"
        assert quarantined[0].quarantine_attempts == 2
        assert not quarantined[0].acceptable
        assert report.runtime["parallel.quarantined"] == 1
        assert report.runtime["parallel.timeouts"] >= 2

        text = report.format()
        assert "1 quarantined" in text
        assert "engine:" in text
        assert "campaign FAILED" in text

        doc = report.to_json_dict()
        assert doc["summary"]["quarantined"] == 1
        assert doc["runtime"]["parallel.quarantined"] == 1
        assert any(
            entry["quarantined"] and entry["verdict"] == "quarantined"
            for entry in doc["failures"]
        )

        # Journaled (resume must not re-run the poison) but never
        # cached (the cache key ignores the timeout policy).
        keys = _small_keys()
        drops_key = keys[
            [c.name for c in generate_fault_configs(1, [0])].index("drops")
        ]
        resumed = CampaignJournal.resume(
            str(tmp_path / "c.journal"), _small_meta(task_timeout=0.4)
        )
        assert resumed.get(drops_key)["quarantined"] is True
        assert len(resumed) == 10
        resumed.close()
        assert cache.get(drops_key) is None
        assert sum(1 for key in keys if cache.get(key) is not None) == 9

    def test_cli_exit_4_on_quarantine_only_failures(
        self, tmp_path, monkeypatch
    ):
        shutdown_pool()
        monkeypatch.setattr(campaign_mod, "_campaign_task", _hang_on_drops)
        json_path = str(tmp_path / "out.json")
        rc = cli_main(
            [
                "chaos", "--algorithms", "abd", "--seeds", "1", "--ops", "3",
                "--out", "", "--no-cache", "--jobs", "2", "--chunk", "2",
                "--task-timeout", "0.4", "--max-retries", "2",
                "--json", json_path,
            ]
        )
        shutdown_pool()
        assert rc == 4  # quarantined-only: neither pass nor proven failure
        doc = json.loads(open(json_path, encoding="utf-8").read())
        assert doc["summary"]["quarantined"] == 1
        assert doc["runtime"]["parallel.quarantined"] == 1


class TestJournalResume:
    def test_resume_executes_zero_runs_byte_identical(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "c.journal")
        journal = CampaignJournal.create(path, _small_meta())
        first = run_campaign(jobs=1, journal=journal, **SMALL)
        journal.close()

        def boom(payload):
            raise AssertionError("run re-executed despite a full journal")

        monkeypatch.setattr(campaign_mod, "_campaign_task", boom)
        resumed = CampaignJournal.resume(path, _small_meta())
        assert resumed.loaded == 10
        progress = []
        second = run_campaign(
            jobs=1, journal=resumed, progress=progress.append, **SMALL
        )
        resumed.close()
        assert second.format() == first.format()
        assert json.dumps(
            second.to_json_dict(), sort_keys=True
        ) == json.dumps(first.to_json_dict(), sort_keys=True)
        assert progress and all(line.endswith("(cached)") for line in progress)

    def test_partial_journal_reexecutes_misses_only(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "c.journal")
        journal = CampaignJournal.create(path, _small_meta())
        first = run_campaign(jobs=1, journal=journal, **SMALL)
        journal.close()

        # Keep the header and the first four completed runs — as if the
        # campaign had been killed there.
        lines = open(path, encoding="utf-8").read().splitlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[:5]) + "\n")

        executed = _record_executions(monkeypatch)
        resumed = CampaignJournal.resume(path, _small_meta())
        assert resumed.loaded == 4
        second = run_campaign(jobs=1, journal=resumed, **SMALL)
        resumed.close()
        assert len(executed) == 6  # the missing runs, each exactly once
        assert second.format() == first.format()

    @pytest.mark.parametrize("field", _REQUIRED_FIELDS)
    def test_entry_missing_a_field_reexecutes_that_run(
        self, field, journaled_cli_run, tmp_path, monkeypatch
    ):
        rc, lines, reference = journaled_cli_run
        entries = [json.loads(line) for line in lines[1:]]
        where, _, key = field.rpartition(".")
        # Damage the first run that has the field (a diagnosed run for
        # the diagnosis fields).
        index = next(
            i for i, entry in enumerate(entries)
            if not where or entry["result"][where] is not None
        )
        result = entries[index]["result"]
        name = result["config"]["name"]
        del (result[where] if where else result)[key]
        with pytest.raises(ConfigurationError, match=".*".join(field.split("."))):
            ChaosRunResult.from_cache_dict(result)
        path = tmp_path / "c.journal"
        path.write_text(
            "\n".join(
                [lines[0], *(json.dumps(e, sort_keys=True) for e in entries)]
            )
            + "\n"
        )

        executed = _record_executions(monkeypatch)
        report = tmp_path / "c.json"
        assert cli_main(
            [*_SMALL_ARGV, "--resume", str(path), "--json", str(report)]
        ) == rc
        assert executed == [name]
        assert report.read_text() == reference

    def test_cache_entry_missing_a_field_is_a_miss(self, tmp_path, monkeypatch):
        cache = RunCache(str(tmp_path / "cache"))
        first = run_campaign(jobs=1, cache=cache, **SMALL)
        key = _small_keys()[0]
        damaged = cache.get(key)
        del damaged["live"]
        cache.put(key, damaged)

        executed = _record_executions(monkeypatch)
        second = run_campaign(jobs=1, cache=cache, **SMALL)
        assert executed == [generate_fault_configs(1, [0])[0].name]
        assert json.dumps(
            second.to_json_dict(), sort_keys=True
        ) == json.dumps(first.to_json_dict(), sort_keys=True)
        assert "live" in cache.get(key)  # the re-executed run was stored


class TestInterrupt:
    def test_interrupt_partial_report_then_resume_byte_identical(
        self, tmp_path, monkeypatch
    ):
        reference = run_campaign(jobs=1, **SMALL)
        path = str(tmp_path / "c.journal")

        _CALLS["n"], _CALLS["limit"] = 0, 4
        monkeypatch.setattr(
            campaign_mod, "_campaign_task", _interrupt_partway
        )
        journal = CampaignJournal.create(path, _small_meta())
        partial = run_campaign(jobs=1, journal=journal, **SMALL)
        journal.close()
        assert partial.interrupted
        assert len(partial.results) == 4  # the contiguous completed prefix
        assert "campaign INTERRUPTED" in partial.format()
        assert partial.to_json_dict()["interrupted"] is True

        _CALLS["limit"] = None  # behave normally again
        resumed = CampaignJournal.resume(path, _small_meta())
        assert resumed.loaded == 4
        final = run_campaign(jobs=1, journal=resumed, **SMALL)
        resumed.close()
        assert not final.interrupted
        assert final.format() == reference.format()
        assert json.dumps(
            final.to_json_dict(), sort_keys=True
        ) == json.dumps(reference.to_json_dict(), sort_keys=True)

    def test_cli_interrupt_exits_130_with_resume_hint(
        self, tmp_path, monkeypatch, capsys
    ):
        _CALLS["n"], _CALLS["limit"] = 0, 2
        monkeypatch.setattr(
            campaign_mod, "_campaign_task", _interrupt_partway
        )
        path = str(tmp_path / "c.journal")
        rc = cli_main(
            [
                "chaos", "--algorithms", "abd", "--seeds", "1", "--ops", "3",
                "--out", "", "--no-cache", "--jobs", "1",
                "--journal", path,
            ]
        )
        _CALLS["limit"] = None
        assert rc == 130
        out = capsys.readouterr().out
        assert "campaign INTERRUPTED" in out
        assert f"resume with --resume {path}" in out


class TestCliUsageErrors:
    def test_journal_and_resume_must_agree(self, tmp_path, capsys):
        rc = cli_main(
            [
                "chaos", "--out", "", "--no-cache",
                "--journal", str(tmp_path / "a.journal"),
                "--resume", str(tmp_path / "b.journal"),
            ]
        )
        assert rc == 3
        assert "different files" in capsys.readouterr().out

    def test_resume_missing_journal_is_usage_error(self, tmp_path, capsys):
        rc = cli_main(
            [
                "chaos", "--out", "", "--no-cache",
                "--resume", str(tmp_path / "absent.journal"),
            ]
        )
        assert rc == 3
        assert "cannot resume" in capsys.readouterr().out

    def test_max_retries_must_be_positive(self, capsys):
        rc = cli_main(
            ["chaos", "--out", "", "--no-cache", "--max-retries", "0"]
        )
        assert rc == 3
