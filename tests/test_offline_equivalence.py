"""Offline-stage passes against their naive scalar loops.

Capacitor sizing, the long-term DP transition, cloud sampling and MLP
fine-tuning run as array passes, and the sizing load profile replays
the asap rule on the engine's period state.  Each must reproduce the
plain loop it stands for *exactly*: the offline stage feeds pinned digests and
committed tables, so every comparison here is ``==`` /
``array_equal``, never a tolerance.  The naive loops live only in this
file, as oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import StorageGrid, asap_load_profile
from repro.core.ann.network import HeadSpec, MultiHeadMLP
from repro.energy import (
    DEFAULT_CANDIDATES,
    DayMigrationResult,
    SuperCapacitor,
    optimal_daily_capacity,
    simulate_day_migration,
    size_bank,
)
from repro.schedulers import best_power_match
from repro.solar.clouds import CloudProcess, SkyState
from repro.tasks import paper_benchmarks
from repro.timeline import Timeline
from repro.verify.strategies import build_graph


# ----------------------------------------------------------------------
# Sizing: the migration recurrence
# ----------------------------------------------------------------------
def naive_day_migration(capacitor, delta_e, slot_seconds, initial_voltage=None):
    """One day through one capacitor, slot by slot on CapacitorState."""
    delta_e = np.asarray(delta_e, dtype=float)
    state = capacitor.fresh_state(initial_voltage)
    leakage = overflow = served = unserved = 0.0
    baseline = state.stored_energy
    for de in delta_e:
        if de > 0:
            eta_before = capacitor.charge_efficiency(state.voltage)
            stored = state.charge(de)
            consumed = stored / max(eta_before, 1e-9)
            overflow += max(de - consumed, 0.0)
        elif de < 0:
            need = -de
            got = state.discharge(need)
            served += got
            unserved += max(need - got, 0.0)
        before = state.stored_energy
        state.leak(slot_seconds)
        leakage += before - state.stored_energy
    total_in = float(delta_e[delta_e > 0].sum())
    residual = state.stored_energy - baseline
    conversion = max(total_in - overflow - leakage - served - residual, 0.0)
    return DayMigrationResult(
        total_loss=conversion + leakage + overflow,
        conversion_loss=conversion,
        leakage_loss=leakage,
        overflow_loss=overflow,
        served=served,
        unserved=unserved,
        final_voltage=state.voltage,
    )


def naive_best(delta_e, slot_seconds, candidates):
    results = [
        (c, naive_day_migration(SuperCapacitor(capacitance=c), delta_e, slot_seconds))
        for c in candidates
    ]
    best_served = max(r.served for _, r in results)
    tolerance = 0.05 * best_served if best_served > 0 else 0.0
    viable = [(c, r) for c, r in results if r.served >= best_served - tolerance]
    return min(viable, key=lambda item: item[1].total_loss)


def delta_series(max_len=60):
    """ΔE slots (J): zeros, small moves and swings past V_H / cut-off."""
    slot = st.one_of(
        st.just(0.0),
        st.floats(-5.0, 5.0),
        st.floats(-2000.0, 2000.0),
        st.sampled_from([1e4, -1e4]),
    )
    return st.lists(slot, min_size=0, max_size=max_len)


class TestSizingRecurrence:
    @settings(max_examples=60, deadline=None)
    @given(
        series=delta_series(),
        capacitance=st.sampled_from([0.5, 3.3, 47.0]),
        initial=st.one_of(st.none(), st.floats(0.0, 5.0)),
    )
    def test_day_matches_capacitor_state_loop(self, series, capacitance, initial):
        cap = SuperCapacitor(capacitance=capacitance)
        got = simulate_day_migration(cap, series, 30.0, initial_voltage=initial)
        assert got == naive_day_migration(cap, series, 30.0, initial)

    def test_all_zero_day_only_leaks(self):
        cap = SuperCapacitor(capacitance=10.0)
        series = np.zeros(50)
        got = simulate_day_migration(cap, series, 30.0, initial_voltage=4.0)
        assert got == naive_day_migration(cap, series, 30.0, 4.0)
        assert got.leakage_loss > 0.0 and got.served == 0.0

    def test_saturating_surplus_and_exhausting_deficit(self):
        cap = SuperCapacitor(capacitance=1.0)
        series = np.array([1e4] * 5 + [-1e4] * 5 + [3.0, -3.0] * 5)
        got = simulate_day_migration(cap, series, 30.0)
        assert got == naive_day_migration(cap, series, 30.0)
        assert got.overflow_loss > 0.0 and got.unserved > 0.0

    @settings(max_examples=15, deadline=None)
    @given(days=st.lists(delta_series(40), min_size=1, max_size=4))
    def test_bank_matches_per_day_search(self, days):
        candidates = DEFAULT_CANDIDATES[::3]
        for de in days:
            if len(de):
                assert optimal_daily_capacity(de, 30.0, candidates) == naive_best(
                    de, 30.0, candidates
                )
        bank = size_bank(days, 30.0, num_capacitors=2, candidates=candidates,
                         daily_weights=[1.0] * len(days))
        if all(len(de) for de in days):
            optima = [naive_best(de, 30.0, candidates)[0] for de in days]
            from repro.energy import cluster_capacities

            expected = cluster_capacities(optima, [1.0] * len(days), 2)
            assert [c.capacitance for c in bank] == expected


# ----------------------------------------------------------------------
# Long-term DP: StorageGrid.transition over rows
# ----------------------------------------------------------------------
def naive_transition(grid, need, surplus, duration):
    """One (need, surplus) pair, with the discharge/charge branches."""
    energy = grid.state_energy.copy()
    usable = grid.state_usable
    feasible = np.ones(grid.num_states, dtype=bool)
    drawn = np.zeros(grid.num_states)
    if need > 0:
        eta_dis = grid._eta_dis
        with np.errstate(divide="ignore"):
            want = np.where(eta_dis > 0, need / np.maximum(eta_dis, 1e-12), np.inf)
        feasible = want <= usable + 1e-9
        drawn = np.where(feasible, want, 0.0)
        energy = energy - drawn
    if surplus > 0:
        voltage = np.sqrt(np.maximum(2.0 * energy / grid.state_capacitance, 0.0))
        vp = voltage**grid._in_exp
        eta_chr = (
            grid._in_eta_max * vp / (vp + grid._in_v_half**grid._in_exp) * grid._cycle
        )
        stored = np.minimum(
            surplus * eta_chr, np.maximum(grid._full_energy - energy, 0)
        )
        energy = energy + stored
    voltage = np.sqrt(np.maximum(2.0 * energy / grid.state_capacitance, 0.0))
    leak = (
        grid._leak_coeff * grid.state_capacitance * voltage**grid._leak_exp
        + grid._parasitic
    )
    energy = np.maximum(energy - leak * duration, 0.0)
    usable_next = np.maximum(energy - grid._floor[grid.state_cap], 0.0)
    frac = usable_next / np.maximum(grid._usable_caps[grid.state_cap], 1e-30)
    bucket = np.floor(np.clip(frac, 0.0, 1.0) * (grid.buckets - 1) + 1e-9).astype(int)
    return feasible, grid.state_cap * grid.buckets + bucket, drawn


class TestTransitionRows:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(
                    st.just(0.0), st.floats(-5.0, 50.0), st.just(1e6)
                ),
                st.one_of(st.just(0.0), st.floats(-50.0, 200.0)),
            ),
            min_size=1,
            max_size=9,
        ),
        caps=st.sampled_from([(1.0,), (1.0, 10.0), (0.5, 4.7, 22.0, 47.0)]),
    )
    def test_rows_match_scalar_calls(self, rows, caps):
        grid = StorageGrid([SuperCapacitor(capacitance=c) for c in caps], 31)
        need = np.array([r[0] for r in rows])
        surplus = np.array([r[1] for r in rows])
        feasible, nxt, drawn = grid.transition(need, surplus, 600.0)
        assert feasible.shape == nxt.shape == drawn.shape == (len(rows), grid.num_states)
        for i, (n, s) in enumerate(rows):
            f0, nx0, d0 = naive_transition(grid, n, s, 600.0)
            assert np.array_equal(feasible[i], f0)
            assert np.array_equal(nxt[i], nx0)
            assert np.array_equal(drawn[i], d0)
            f1, nx1, d1 = grid.transition(n, s, 600.0)
            assert f1.shape == (grid.num_states,)
            assert np.array_equal(f1, f0) and np.array_equal(nx1, nx0)
            assert np.array_equal(d1, d0)

    def test_infeasible_rows_are_marked(self):
        grid = StorageGrid([SuperCapacitor(capacitance=1.0)], 11)
        feasible, _, drawn = grid.transition([0.0, 1e6], [0.0, 0.0], 600.0)
        assert feasible[0].all() and not feasible[1].any()
        assert np.all(drawn == 0.0)


# ----------------------------------------------------------------------
# Cloud sampling
# ----------------------------------------------------------------------
def naive_cloud_sample(process, times, rng, initial_state=None):
    """One regime check and one normal draw per time point."""
    times = np.asarray(times, dtype=float)
    n_states = len(process.states)
    state = int(rng.integers(n_states)) if initial_state is None else int(initial_state)
    out = np.empty_like(times)
    next_switch = times[0] + rng.exponential(process.states[state].dwell_seconds)
    fluctuation = 0.0
    prev_t = times[0]
    for i, t in enumerate(times):
        while t >= next_switch and n_states > 1:
            state = int(rng.choice(n_states, p=process.transitions[state]))
            next_switch += rng.exponential(process.states[state].dwell_seconds)
        regime = process.states[state]
        dt = max(t - prev_t, 0.0)
        decay = np.exp(-dt / process.smoothness_seconds)
        noise_scale = regime.spread * np.sqrt(max(1.0 - decay**2, 0.0))
        fluctuation = fluctuation * decay + rng.normal(0.0, 1.0) * noise_scale
        out[i] = np.clip(regime.mean_transmittance + fluctuation, 0.02, 1.0)
        prev_t = t
    return out


PROCESSES = {
    "default": CloudProcess(),
    "single-state": CloudProcess([SkyState("only", 0.6, 0.2, 50.0)]),
    "short-dwell": CloudProcess(
        [SkyState("a", 0.9, 0.05, 120.0), SkyState("b", 0.3, 0.1, 60.0)],
        smoothness_seconds=30.0,
    ),
}


class TestCloudSampling:
    @pytest.mark.parametrize("name", sorted(PROCESSES))
    @pytest.mark.parametrize("seed", [0, 1, 7, 2015])
    def test_matches_per_sample_loop(self, name, seed):
        process = PROCESSES[name]
        times = np.sort(np.random.default_rng(seed).uniform(0.0, 86400.0, 400))
        times[100:120] = times[100]  # repeated times: dt = 0
        for initial in (None, 0):
            got = process.sample(times, np.random.default_rng(seed), initial)
            want = naive_cloud_sample(
                process, times, np.random.default_rng(seed), initial
            )
            assert np.array_equal(got, want)

    def test_uniform_grid_and_leftover_stream(self):
        """The generator is left where the per-sample loop leaves it."""
        times = np.arange(0.0, 86400.0, 30.0)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        assert np.array_equal(
            PROCESSES["default"].sample(times, a),
            naive_cloud_sample(PROCESSES["default"], times, b),
        )
        assert a.random() == b.random()


# ----------------------------------------------------------------------
# MLP fine-tuning
# ----------------------------------------------------------------------
def _sig(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _softmax(x):
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def naive_train(net, x, cap_t, alpha_t, te_t, epochs, learning_rate=0.05,
                batch_size=32, momentum=0.8, weight_decay=1e-4):
    """Per-layer mini-batch SGD with fancy-indexed batches."""
    heads = net.heads
    n, h = len(x), heads.num_capacitors
    cap_onehot = np.zeros((n, h))
    cap_onehot[np.arange(n), cap_t] = 1.0
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    losses = np.zeros(epochs)
    for epoch in range(epochs):
        order = net.rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            acts = [x[idx]]
            for w, b in zip(weights[:-1], biases[:-1]):
                acts.append(_sig(acts[-1] @ w + b))
            logits = acts[-1] @ weights[-1] + biases[-1]
            cap = _softmax(logits[:, :h])
            alpha = logits[:, h : h + 1]
            te = _sig(logits[:, h + 1 :])
            m = len(idx)
            d_cap = (cap - cap_onehot[idx]) * heads.cap_weight
            d_alpha = (alpha[:, 0] - alpha_t[idx])[:, None] * heads.alpha_weight
            d_te = (te - te_t[idx]) * heads.te_weight
            delta = np.concatenate([d_cap, d_alpha, d_te], axis=1) / m
            eps = 1e-12
            total += float(
                -heads.cap_weight * (cap_onehot[idx] * np.log(cap + eps)).sum()
                + 0.5 * heads.alpha_weight * ((alpha[:, 0] - alpha_t[idx]) ** 2).sum()
                - heads.te_weight
                * (
                    te_t[idx] * np.log(te + eps)
                    + (1 - te_t[idx]) * np.log(1 - te + eps)
                ).sum()
            )
            grads_w = [None] * len(weights)
            grads_b = [None] * len(weights)
            grads_w[-1] = acts[-1].T @ delta
            grads_b[-1] = delta.sum(axis=0)
            back = delta @ weights[-1].T
            for layer in range(len(weights) - 2, -1, -1):
                a = acts[layer + 1]
                back = back * a * (1.0 - a)
                grads_w[layer] = acts[layer].T @ back
                grads_b[layer] = back.sum(axis=0)
                if layer > 0:
                    back = back @ weights[layer].T
            for layer in range(len(weights)):
                grads_w[layer] += weight_decay * weights[layer]
                vel_w[layer] = momentum * vel_w[layer] - learning_rate * grads_w[layer]
                vel_b[layer] = momentum * vel_b[layer] - learning_rate * grads_b[layer]
                weights[layer] += vel_w[layer]
                biases[layer] += vel_b[layer]
        losses[epoch] = total / n
    return weights, biases, losses


class TestMLPTraining:
    @pytest.mark.parametrize("num_capacitors", [1, 4])
    def test_weights_and_losses_match_per_layer_loop(self, num_capacitors):
        rng = np.random.default_rng(num_capacitors)
        n, width, tasks = 75, 9, 3  # 75 = two full batches and a partial one
        x = rng.random((n, width))
        cap_t = rng.integers(0, num_capacitors, n)
        alpha_t = rng.uniform(0.0, 5.0, n)
        te_t = (rng.random((n, tasks)) < 0.5).astype(float)
        heads = HeadSpec(num_capacitors=num_capacitors, num_tasks=tasks)
        fast = MultiHeadMLP(width, (8, 5), heads, rng=np.random.default_rng(11))
        slow = MultiHeadMLP(width, (8, 5), heads, rng=np.random.default_rng(11))
        losses = fast.train(x, cap_t, alpha_t, te_t, epochs=6)
        weights, biases, want = naive_train(slow, x, cap_t, alpha_t, te_t, 6)
        assert np.array_equal(losses, want)
        for got, expected in zip(fast.weights + fast.biases, weights + biases):
            assert np.array_equal(got, expected)
        # The trained network predicts from its (flat-buffer) parameters.
        cap, alpha, te = fast.predict(x[:4])
        assert cap.shape == (4, num_capacitors) and te.shape == (4, tasks)


# ----------------------------------------------------------------------
# Sizing: the ASAP load profile
# ----------------------------------------------------------------------
def naive_asap_profile(graph, timeline):
    """The ASAP schedule's load with its own ready scan, EDF order,
    per-NVP claim, must-run split and unlimited-solar power match."""
    n = len(graph)
    n_slots = timeline.slots_per_period
    dt = timeline.slot_seconds
    deadline_slots = np.array(
        [timeline.deadline_slot(t.deadline) for t in graph.tasks]
    )
    remaining = np.array([t.execution_time for t in graph.tasks], dtype=float)
    matrix = np.zeros((n_slots, n), dtype=bool)
    for m in range(n_slots):
        done = remaining <= 1e-9
        ready = [
            i
            for i in range(n)
            if not done[i]
            and m < deadline_slots[i]
            and all(done[p] for p in graph.predecessors(i))
        ]
        if not ready:
            continue
        ready.sort(key=lambda i: (deadline_slots[i], i))
        per_nvp = {}
        for i in ready:
            per_nvp.setdefault(graph.nvp_of(i), i)
        candidates = list(per_nvp.values())
        urgent = [
            i
            for i in candidates
            if deadline_slots[i] - m - int(-(-remaining[i] // dt)) <= 0
        ]
        optional = [i for i in candidates if i not in urgent]
        powers = [graph.tasks[i].power for i in optional]
        chosen = urgent + [optional[k] for k in best_power_match(powers, np.inf)]
        for i in chosen:
            matrix[m, i] = True
            remaining[i] = max(remaining[i] - dt, 0.0)
    return matrix @ np.array([t.power for t in graph.tasks])


#: Slots per period x slot seconds: the default, coarse and fine grids.
ASAP_TIMELINES = [
    Timeline(1, 1, 20, 30.0),
    Timeline(1, 1, 10, 60.0),
    Timeline(1, 1, 40, 15.0),
]
#: The paper benchmarks (random cases included) and the fleet's kinds.
ASAP_GRAPHS = {
    **paper_benchmarks(),
    **{kind: build_graph(kind) for kind in ("wam", "ecg", "shm")},
}


class TestAsapLoadProfile:
    @pytest.mark.parametrize("name", sorted(ASAP_GRAPHS))
    @pytest.mark.parametrize(
        "timeline", ASAP_TIMELINES, ids=["20x30s", "10x60s", "40x15s"]
    )
    def test_benchmarks_match_naive_schedule(self, name, timeline):
        graph = ASAP_GRAPHS[name]
        got = asap_load_profile(graph, timeline)
        assert got.tobytes() == naive_asap_profile(graph, timeline).tobytes()

    @given(
        seed=st.integers(0, 10_000), timeline=st.sampled_from(ASAP_TIMELINES)
    )
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_match_naive_schedule(self, seed, timeline):
        graph = build_graph(f"random:{seed}")
        got = asap_load_profile(graph, timeline)
        assert got.tobytes() == naive_asap_profile(graph, timeline).tobytes()
