"""The deterministic fault-injection harness itself."""

import pytest

from repro.testing import faults


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.reset()
    yield
    faults.reset()


def _schedule(plan, site, hits):
    """True/False outcome of `hits` consecutive fires at `site`."""
    outcomes = []
    for _ in range(hits):
        try:
            plan.fire(site)
            outcomes.append(False)
        except faults.InjectedFault:
            outcomes.append(True)
    return outcomes


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        first = _schedule(faults.FaultPlan(seed=7, rates={"store.read": 0.5}),
                          "store.read", 50)
        second = _schedule(faults.FaultPlan(seed=7, rates={"store.read": 0.5}),
                           "store.read", 50)
        assert first == second
        assert any(first) and not all(first)  # an actual mix at rate 0.5

    def test_different_seeds_differ(self):
        first = _schedule(faults.FaultPlan(seed=1, rates={"store.read": 0.5}),
                          "store.read", 50)
        second = _schedule(faults.FaultPlan(seed=2, rates={"store.read": 0.5}),
                           "store.read", 50)
        assert first != second

    def test_sites_draw_independently(self):
        # firing site A must not perturb site B's schedule: B alone vs
        # B interleaved with A yields the same outcomes for B
        plan_solo = faults.FaultPlan(seed=3, rates={"a.x": 0.5, "b.y": 0.5})
        solo = _schedule(plan_solo, "b.y", 30)
        plan_mixed = faults.FaultPlan(seed=3, rates={"a.x": 0.5, "b.y": 0.5})
        mixed = []
        for _ in range(30):
            _schedule(plan_mixed, "a.x", 2)
            mixed.extend(_schedule(plan_mixed, "b.y", 1))
        assert mixed == solo


class TestRates:
    def test_rate_zero_never_fires(self):
        plan = faults.FaultPlan(seed=0, rates={"store.read": 0.0})
        assert not any(_schedule(plan, "store.read", 100))

    def test_rate_one_always_fires(self):
        plan = faults.FaultPlan(seed=0, rates={"store.read": 1.0})
        assert all(_schedule(plan, "store.read", 10))

    def test_unlisted_site_is_a_noop(self):
        plan = faults.FaultPlan(seed=0, rates={"store.read": 1.0})
        plan.fire("journal.append")  # no rate: must not raise
        assert plan.hits("journal.append") == 1


class TestModuleGlobals:
    def test_fire_without_plan_is_noop(self):
        faults.fire("anything.at.all")  # must not raise

    def test_install_and_reset(self):
        plan = faults.install(faults.FaultPlan(seed=0, rates={"x.y": 1.0}))
        assert faults.active() is plan
        with pytest.raises(faults.InjectedFault):
            faults.fire("x.y")
        faults.reset()
        assert faults.active() is None
        faults.fire("x.y")  # deactivated

    def test_injected_fault_carries_site(self):
        faults.install(faults.FaultPlan(seed=0, rates={"store.write": 1.0}))
        with pytest.raises(faults.InjectedFault) as error:
            faults.fire("store.write")
        assert error.value.site == "store.write"


class TestEnvRoundTrip:
    def test_plan_survives_env_encoding(self):
        plan = faults.FaultPlan(
            seed=11,
            rates={"store.read": 0.3},
            delays={"batcher.refresh": 0.1},
            kill={"site": "journal.append", "after": 5},
        )
        environ = {faults.ENV_VAR: plan.to_env()}
        decoded = faults.plan_from_env(environ)
        assert decoded.to_dict() == plan.to_dict()
        # and the decoded plan reproduces the original's schedule
        assert _schedule(decoded, "store.read", 40) == _schedule(
            faults.FaultPlan(seed=11, rates={"store.read": 0.3}), "store.read", 40
        )

    def test_missing_or_malformed_env_is_none(self):
        assert faults.plan_from_env({}) is None
        assert faults.plan_from_env({faults.ENV_VAR: "{broken"}) is None
        assert faults.plan_from_env({faults.ENV_VAR: "[1,2]"}) is None

    def test_install_from_env(self):
        environ = {faults.ENV_VAR: faults.FaultPlan(seed=4).to_env()}
        plan = faults.install_from_env(environ)
        assert plan is not None
        assert faults.active() is plan
