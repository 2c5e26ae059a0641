"""Readable references the engine's fast paths are checked against."""

from __future__ import annotations

from pressim.sim import _EPS, Simulation, VehicleStatus, wake_offset


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


class AwakeSimulation(Simulation):
    """The engine without wait lists: every served live movement is visited
    on every tick, a movement sleeps only once its entering lanes are empty
    and its credit full, every join wakes the joined lane's movements, and
    a held road wakes on any pop from one of its stop-line lanes."""

    def __init__(self, net, flows, config):
        super().__init__(net, flows, config)
        road_of = {rid: i for i, rid in enumerate(self._road_ids)}
        # per movement: the indices of the roads its entering lanes end
        self._upstream = {
            m.id: {road_of[net.lane_index[lane][0].id] for lane in m.entering}
            for lanes in net.lane_table.values()
            for m in lanes.movements
        }

    def _advance_transit(self) -> None:
        roads = self._calendar.pop(self._ticks, ())
        st = self.state
        for r in roads:
            dq = self._transit[r]
            terminal, capacity = self._stop_line[r]
            while dq and dq[0][0] <= st.clock + _EPS:
                v = st.vehicles[dq[0][1]]
                if terminal:
                    dq.popleft()
                    v.status = VehicleStatus.FINISHED
                    v.exit_time = st.clock
                    st.counters.finished += 1
                    continue
                lanes = v.plan[v.route_pos]
                lane = self._pick_lane(lanes)
                if len(st.queues[lane]) >= capacity:
                    self._held[r] = True
                    break
                dq.popleft()
                st.queues[lane].append(v.id)
                st.total_queued += 1
                v.status = VehicleStatus.QUEUED
                for ii, bits in self._joins[lane]:
                    self._live[ii] |= bits
            else:
                if dq:
                    wake = self._ticks + wake_offset(dq[0][0] - st.clock, self.config.tick)
                    self._calendar[max(wake, self._ticks + 1)].append(r)

    def _discharge(self) -> None:
        st = self.state
        credit, live, n = self._credit, self._live, self._ticks
        for ii, (sig, by_phase, in_transition, moves) in enumerate(self._junctions):
            served = by_phase[sig.active] if sig.transition is None else in_transition
            for mv in moves:
                if not live[ii] & served & mv.bit:
                    continue
                c = credit[mv.id] + self._gain
                if not any(mv.lanes):
                    credit[mv.id] = min(c, 1.0)
                    if c >= 1.0:
                        live[ii] &= ~mv.bit
                    continue
                while c >= 1.0 - _EPS:
                    for q in mv.lanes:
                        if not q:
                            continue
                        v = st.vehicles[q[0]]
                        pos = v.route_pos + 1
                        if v.route[pos] != mv.receiving_road:
                            continue
                        if mv.sink or len(st.queues[self._pick_lane(v.plan[pos])]) < mv.capacity:
                            break
                    else:
                        break
                    q.popleft()
                    st.total_queued -= 1
                    v.route_pos = pos
                    v.status = VehicleStatus.IN_TRANSIT
                    if not mv.transit:
                        self._calendar[n + mv.hop].append(mv.road)
                    mv.transit.append((st.clock + mv.travel_time, v.id))
                    for r in self._upstream[mv.id]:
                        if self._held[r]:
                            self._held[r] = False
                            self._calendar[n + 1].append(r)
                    c -= 1.0
                credit[mv.id] = min(c, 1.0)
