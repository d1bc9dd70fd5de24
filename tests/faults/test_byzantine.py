"""Tier-1 tests for the Byzantine fault band.

Covers the tamper-mode table (validation lists the valid modes), the :class:`ByzantineConfig` model and corruption
roles, the graceful-degradation contract (masked corruption yields a
``degraded`` — never a violated — verdict), and the campaign-report
visibility of ``faults.byzantine.*`` counters even for passing runs.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults.adversary import (
    BYZANTINE_ROLE_NAMES,
    AdversaryConfig,
    ByzantineConfig,
    ChannelAdversary,
    tamper_mode_names,
)
from repro.faults.campaign import (
    BYZANTINE_SHAPES,
    FAULT_SHAPES,
    FaultConfig,
    generate_fault_configs,
    run_campaign,
    run_chaos_workload,
)
from repro.faults.watchdog import VERDICT_BYZANTINE
from repro.registers.abd import build_abd_system
from repro.registers.cas import build_cas_system
from repro.registers.catalog import build_client_system
from repro.sim.events import Message


# -- tamper modes ------------------------------------------------------------


class TestTamperRegistry:
    def test_builtin_mode_registered(self):
        assert "stale-tags" in tamper_mode_names()

    def test_unknown_mode_lists_valid_ones(self):
        with pytest.raises(ConfigurationError) as exc:
            AdversaryConfig(tamper_mode="bogus").validate()
        assert "bogus" in str(exc.value)
        assert "stale-tags" in str(exc.value)


# -- the adversary model -----------------------------------------------------


class TestByzantineConfig:
    def test_role_cycle(self):
        byz = ByzantineConfig(servers=("s000", "s001"))
        assert byz.role_of("s000") == BYZANTINE_ROLE_NAMES[0]
        assert byz.role_of("s001") == BYZANTINE_ROLE_NAMES[1]
        assert byz.role_of("s002") is None

    def test_unknown_role_rejected(self):
        with pytest.raises(ConfigurationError):
            ByzantineConfig(servers=("s000",), roles=("nonsense",)).validate()

    def test_empty_roles_rejected(self):
        with pytest.raises(ConfigurationError):
            ByzantineConfig(servers=("s000",), roles=()).validate()

    def test_validated_via_adversary_config(self):
        config = AdversaryConfig(
            byzantine=ByzantineConfig(servers=("s000",), roles=("bad",))
        )
        with pytest.raises(ConfigurationError):
            config.validate()


class TestCorruptionRoles:
    def _adversary(self, roles):
        return ChannelAdversary(
            AdversaryConfig(
                byzantine=ByzantineConfig(servers=("s000",), roles=roles)
            ),
            seed=0,
        )

    def test_equivocate_depends_on_destination(self):
        adv = self._adversary(("equivocate",))
        msg = Message.make("get-ack", ref=("r000", 1), tag=(3, "w000"), value=5)
        a = adv.transform("s000", "r000", msg)
        b = adv.transform("s000", "r001", msg)
        assert a.get("value") != msg.get("value")
        assert b.get("value") != msg.get("value")
        # Different readers can be told different lies; the same reader
        # always gets the same lie (deterministic, no RNG consumed).
        assert a.get("value") == adv.transform("s000", "r000", msg).get("value")

    def test_garbage_corrupts_coded_elements(self):
        adv = self._adversary(("garbage",))
        msg = Message.make("read-ack", ref=("r000", 1), tag=(3, "w000"), elem=9)
        out = adv.transform("s000", "r000", msg)
        assert out.get("elem") != 9
        assert adv.byzantine_corruptions == 1
        assert adv.byzantine_by_role == {"garbage": 1}

    def test_stale_replay_only_lowers_tags(self):
        adv = self._adversary(("stale-replay",))
        msg = Message.make("get-ack", ref=("r000", 1), tag=(3, "w000"), value=5)
        out = adv.transform("s000", "r000", msg)
        assert out.get("tag") == (0, "")
        assert out.get("value") == 0

    def test_ack_drop_neutralizes_installs(self):
        adv = self._adversary(("ack-drop",))
        msg = Message.make("put", ref=("w000", 1), tag=(3, "w000"), value=5)
        out = adv.transform("w000", "s000", msg)
        assert out.get("tag") == (0, "")
        assert out.get("value") == 0

    def test_honest_traffic_untouched(self):
        adv = self._adversary(("equivocate",))
        msg = Message.make("get-ack", ref=("r000", 1), tag=(3, "w000"), value=5)
        assert adv.transform("s001", "r000", msg) is msg
        assert adv.byzantine_corruptions == 0

    def test_no_rng_consumed(self):
        # Corruption must never touch the channel-adversary RNG stream,
        # or honest drop/dup/reorder decisions would diverge from a
        # corruption-free replay of the same seed.
        adv = self._adversary(("equivocate", "garbage"))
        before = adv.rng.random()
        adv2 = self._adversary(("equivocate", "garbage"))
        msg = Message.make("get-ack", ref=("r000", 1), tag=(3, "w000"), value=5)
        adv2.transform("s000", "r000", msg)
        assert adv2.rng.random() == before

    def test_stats_include_byzantine_counters(self):
        adv = self._adversary(("garbage",))
        stats = adv.stats()
        assert stats["byzantine_corruptions"] == 0
        assert stats["byzantine_by_role"] == {}


# -- graceful degradation ----------------------------------------------------


def _byz_config(name="byz-equivocate", roles=("equivocate",), seed=0, **kw):
    return FaultConfig(
        name=name, seed=seed, byzantine_count=1, byzantine_roles=roles, **kw
    )


class TestGracefulDegradation:
    def test_equivocation_degraded_not_violated(self):
        # The tier-1 smoke the issue pins: one equivocation run must
        # yield Degraded (masked corruption), never a safety violation,
        # deterministically.
        digests = set()
        for _ in range(2):
            handle = build_client_system("abd", 5, 1, 6, byzantine_budget=1)
            result = run_chaos_workload(
                handle, _byz_config(), num_ops=10, max_ticks=4000
            )
            assert result.safety_ok
            assert result.live
            assert result.byzantine_detected > 0
            assert result.degraded
            assert result.verdict() == "degraded"
            assert result.acceptable
            digests.add(json.dumps(result.to_cache_dict(), sort_keys=True))
        assert len(digests) == 1  # bit-identical across runs

    def test_cas_validated_decode_degrades(self):
        handle = build_client_system("cas", 5, 1, 6, byzantine_budget=1)
        result = run_chaos_workload(
            handle, _byz_config(roles=("garbage",)), num_ops=10, max_ticks=4000
        )
        assert result.safety_ok
        assert result.degraded

    def test_unprotected_clients_violate_safety(self):
        # byzantine_budget=0 with corrupt servers: the rigged fixture
        # for triage — corruption goes unmasked and atomicity breaks.
        handle = build_client_system("abd", 5, 1, 6, byzantine_budget=0)
        result = run_chaos_workload(
            handle,
            _byz_config(byzantine_budget=0),
            num_ops=10,
            max_ticks=4000,
        )
        assert not result.safety_ok
        assert result.verdict() != "degraded"

    def test_budget_sentinel_resolution(self):
        assert _byz_config().resolved_byzantine_budget() == 1
        assert (
            _byz_config(byzantine_budget=0).resolved_byzantine_budget() == 0
        )
        assert FaultConfig(name="x").resolved_byzantine_budget() == 0

    def test_builder_rejects_over_budget(self):
        with pytest.raises(ConfigurationError):
            build_abd_system(5, 1, byzantine_budget=2)  # q+b = 6 > 5
        with pytest.raises(ConfigurationError):
            build_cas_system(5, 1, byzantine_budget=1, k=3)  # k > n-2f-2b
        with pytest.raises(ConfigurationError):
            build_abd_system(5, 1, byzantine_budget=-1)

    def test_swmr_algorithms_reject_byzantine(self):
        with pytest.raises(ConfigurationError):
            build_client_system("swmr-abd", 5, 1, 6, byzantine_budget=1)

    def test_cas_byzantine_rate_drop(self):
        # The BKS duality point: defending against b corrupt servers
        # costs code rate (k drops from n-2f to n-2f-2b).
        plain = build_cas_system(7, 1, value_bits=10)
        byz = build_cas_system(7, 1, value_bits=10, byzantine_budget=1)
        assert plain.params["k"] == 5
        assert byz.params["k"] == 3

    def test_stale_replay_is_undetectable_but_safe(self):
        # A stale response is indistinguishable from honest lag, so it
        # must NOT count as detected corruption — the run stays plain
        # "live", and safety holds because validation never selects an
        # unconfirmed stale pair over a confirmed newer one.
        handle = build_client_system("abd", 5, 1, 6, byzantine_budget=1)
        result = run_chaos_workload(
            handle,
            _byz_config(roles=("stale-replay",)),
            num_ops=10,
            max_ticks=4000,
        )
        assert result.safety_ok
        assert result.verdict() == "live"
        assert result.byzantine_detected == 0


# -- campaign wiring ---------------------------------------------------------


class TestCampaignBand:
    def test_default_grid_unchanged(self):
        configs = generate_fault_configs(1, [0])
        assert len(configs) == len(FAULT_SHAPES)
        assert all(c.byzantine_count == 0 for c in configs)

    def test_byzantine_grid_appends_band(self):
        configs = generate_fault_configs(1, [0], byzantine=1)
        assert len(configs) == len(FAULT_SHAPES) + len(BYZANTINE_SHAPES)
        byz = [c for c in configs if c.byzantine_count == 1]
        assert len(byz) == len(BYZANTINE_SHAPES)

    def test_counters_visible_in_json_without_violation(self):
        # Satellite: faults.tampers / faults.byzantine.* visibility —
        # every per-run summary carries the corruption counters even
        # when the run passes.
        report = run_campaign(
            algorithms=["abd"],
            seeds=[0],
            byzantine=1,
            num_ops=8,
            max_ticks=4000,
        )
        assert report.passed
        doc = report.to_json_dict()
        assert doc["summary"]["degraded"] > 0
        for run in doc["runs"]:
            assert "tampers" in run["fault_stats"]
            assert "byzantine_corruptions" in run["fault_stats"]
            assert "byzantine_by_role" in run["fault_stats"]
            assert "byzantine_detected" in run
        byz_runs = [
            r for r in doc["runs"] if r["config"]["byzantine_count"] > 0
        ]
        assert any(
            r["fault_stats"]["byzantine_corruptions"] > 0 for r in byz_runs
        )
        assert any(r["verdict"] == "degraded" for r in byz_runs)

    def test_report_table_has_byz_column(self):
        report = run_campaign(
            algorithms=["abd"],
            seeds=[0],
            byzantine=1,
            num_ops=8,
            max_ticks=4000,
        )
        text = report.format()
        assert "byz" in text.splitlines()[2]
        assert "degraded" in text

    def test_byz_crash_diagnosed_as_byzantine_suppressed(self):
        handle = build_client_system("abd", 5, 1, 6, byzantine_budget=1)
        config = _byz_config(
            name="byz-crash",
            roles=(),
            crash_recovery=True,
            fault_target_count=1,
            expect_liveness=False,
        )
        result = run_chaos_workload(handle, config, num_ops=8, max_ticks=4000)
        assert result.acceptable
        if not result.live:
            assert result.diagnosis is not None
            assert result.diagnosis.verdict == VERDICT_BYZANTINE
            assert result.diagnosis.byzantine_servers == ("s000",)
