"""Readable references the engine's fast paths are checked against."""

from __future__ import annotations

from pressim.sim import _EPS, Simulation


class ScanSimulation(Simulation):
    """The engine with the per-tick scan that the decision calendar
    replaced: every tick, every intersection with a controller is checked."""

    def _poll(self, controllers) -> None:
        self._checks.clear()  # the calendar is unused here
        st = self.state
        signals, net = st.signals, self.net
        for iid in self._intersection_ids:
            ctrl = controllers.get(iid)
            if ctrl is None:
                continue
            sig = signals[iid]
            if sig.transition is not None or sig.elapsed + _EPS < ctrl.t_duration:
                continue
            obs = ctrl.observe(st, net, iid)
            action = ctrl.decide(obs, iid)
            st.counters.decisions += 1
            self.set_phase(iid, action)
