"""A cooperative or notary saved and reloaded mid-run changes nothing.

State files carry the whole actor.  At restart points that hypothesis
draws, every cooperative and notary of a run is written with
``save_state``, read back with ``load_state`` and wired in again as
``Scenario._build_actors`` wires it; the run's log must be byte-identical
to the plain run's.  It runs over every bundled scenario and the
benchmark's workloads at their smoke-test size.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coopattest.cooperative import Cooperative
from coopattest.harness import (
    Scenario,
    ScenarioConfig,
    bundled_scenario_names,
    bundled_scenario_path,
    run_scenario,
)
from coopattest.notary import Notary

from conftest import benchmark_workloads, tiny_benchmark_workload

SCENARIOS = [*bundled_scenario_names(), *sorted(benchmark_workloads().TINY_SHAPES)]


@functools.lru_cache(maxsize=None)
def config_and_log(name):
    """The config of *name*, and the bytes of its plain run's log."""
    if name in bundled_scenario_names():
        config = ScenarioConfig.load(bundled_scenario_path(name))
    else:
        config = tiny_benchmark_workload(name)
    return config, run_scenario(config).to_bytes()


class RestartingScenario(Scenario):
    """A scenario that, before each script action whose index is in
    *restarts*, reloads every cooperative and notary from the state file
    it has just written under *directory*."""

    def __init__(self, config, restarts, directory):
        self.restarts, self.directory, self.index = restarts, directory, 0
        super().__init__(config)
        self._handlers = {kind: self._restarting(handler)
                          for kind, handler in Scenario._handlers.items()}

    def _restarting(self, handler):
        def handle(scenario, action):
            if self.index in self.restarts:
                self.restart()
            self.index += 1
            handler(scenario, action)
        return handle

    def restart(self):
        """Replace each cooperative and notary in place, so that the
        exchanges and providers, which hold ``notaries``, reach the
        reloaded ones."""
        for actors, cls in ((self.coops, Cooperative), (self.notaries, Notary)):
            for name, actor in actors.items():
                path = self.directory / f"{cls.__name__}-{name}.state"
                actor.save_state(path)
                actors[name] = cls.load_state(path)
        for notary in self.notaries.values():
            self._bind(notary)
        for coop in self.coops.values():
            self._bind(coop)
            self.notaries[coop.legal_rep_id].represent(coop.public_key, coop.revalidation_status)


@pytest.mark.parametrize("name", SCENARIOS)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_a_run_restarted_anywhere_writes_the_same_log(name, data, tmp_path):
    config, plain = config_and_log(name)
    restarts = data.draw(st.sets(st.integers(0, len(config.script) - 1)), label="restarts")
    scenario = RestartingScenario(config, restarts, tmp_path)
    assert scenario.run().to_bytes() == plain

