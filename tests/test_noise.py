import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense
from contextkey import noise, protocol, qmath


def h2(p):
    """Binary entropy in bits, 0 at the endpoints."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestNoiseTypes:
    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            noise.FlipPrep(-0.1, 0.0)
        with pytest.raises(ValueError):
            noise.WhitePrep(1.2)
        with pytest.raises(ValueError):
            noise.MisreadDetector(2.0)
        with pytest.raises(ValueError):
            noise.LossDetector(-0.5)


class TestNoisyPreparation:
    def test_sampler_matches_mixture(self):
        # The engine's noisy key preparation samples the mixture: the basis
        # state it emits, one draw per round, for an intended key bit.
        def emitted(prep, outcome):
            config = protocol.ProtocolConfig(
                "mermin", 3, 20_000, seed=0, masking_enabled=False, noise=noise.NoiseConfig(prep=prep)
            )
            engine = protocol._Engine(config)
            pick = np.full(config.rounds, protocol.MERMIN_PREFIXES.index("Z"))
            intended = np.full(config.rounds, outcome)
            code = engine._prepare(1, pick, intended, engine._draw(config.rounds))
            states = np.empty((engine.plan.dim, config.rounds), dtype=np.complex128)
            kets = engine._gather(engine.plan.references[0].post, code, out=states).T  # (rounds, D)
            return np.argmax(np.abs(kets), axis=1)

        draws = emitted(noise.FlipPrep(0.1, 0.2), outcome=-1)  # key bit 1, basis index 7
        fraction_target = np.mean(draws == 7)
        assert abs(fraction_target - 0.8) < 4 * math.sqrt(0.8 * 0.2 / 20_000)
        draws = emitted(noise.WhitePrep(0.5), outcome=+1)  # key bit 0, basis index 0
        # every non-target index appears with weight eps/8
        for idx in range(1, 8):
            assert abs(np.mean(draws == idx) - 0.5 / 8) < 4 * math.sqrt(0.0625 / 20_000)


class TestDetectorEffects:
    def test_zero_misread_is_ideal(self):
        obs = dense.pauli("Z", 2, qmath.PartyIndexing(3))
        effects = dense.detector_effects(obs, noise.MisreadDetector(0.0))
        assert np.allclose(effects[0][1], obs.plus_projector)
        assert np.allclose(effects[1][1], obs.minus_projector)

    def test_misread_flips_an_eigenstate(self):
        obs = dense.pauli("Z", 1, qmath.PartyIndexing(3))
        effects = dense.detector_effects(obs, noise.MisreadDetector(0.1))
        plus_state = dense.StateVector.basis(8, 0)
        p_read_minus = dense.expectation(plus_state, dense.HermitianOperator(effects[1][1]))
        assert p_read_minus == pytest.approx(0.1, abs=1e-12)

    def test_loss_erases_with_the_complement(self):
        obs = dense.pauli("Z", 1, qmath.PartyIndexing(3))
        effects = dense.detector_effects(obs, noise.LossDetector(0.7))
        assert effects[2][0] == noise.ERASED
        state = dense.StateVector(np.ones(8, dtype=complex) / math.sqrt(8))
        p_erased = dense.expectation(state, dense.HermitianOperator(effects[2][1]))
        assert p_erased == pytest.approx(0.3, abs=1e-12)

    def test_effect_equals_flip_composition_exactly(self):
        rng = np.random.default_rng(1)
        obs = dense.pauli("Z", 2, qmath.PartyIndexing(3))
        for eta in (0.05, 0.25, 0.5):
            effects = dense.detector_effects(obs, noise.MisreadDetector(eta))
            for _ in range(20):
                amps = rng.normal(size=8) + 1j * rng.normal(size=8)
                state = dense.StateVector(amps / np.linalg.norm(amps))
                p_plus, p_minus = dense.branch_probabilities(state, obs)
                flip_plus = (1 - eta) * p_plus + eta * p_minus
                assert abs(flip_plus - dense.expectation(state, dense.HermitianOperator(effects[0][1]))) < 1e-12


class TestBinaryMutualInformation:
    def test_independent_coins(self):
        assert noise.binary_mutual_information(np.full((2, 2), 0.25)) == pytest.approx(0.0)

    def test_symmetric_flip_channel(self):
        eps = 0.1
        table = np.array([[0.5 * (1 - eps), 0.5 * eps], [0.5 * eps, 0.5 * (1 - eps)]])
        assert noise.binary_mutual_information(table) == pytest.approx(1 - h2(0.1), abs=1e-12)
        assert 1 - h2(0.1) == pytest.approx(0.5310, abs=1e-4)

    def test_asymmetric_flip_channel(self):
        # eps1 = 0, eps2 = 0.5: I = H(Y) − h(0.5)/2 with P(Y=1) = 1/4.
        table = np.array([[0.5, 0.0], [0.25, 0.25]])
        expected = h2(0.25) - 0.5
        assert noise.binary_mutual_information(table) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.3113, abs=1e-4)

    def test_erasure_column(self):
        eta = 0.7
        table = np.array([[0.5 * eta, 0.0, 0.5 * (1 - eta)], [0.0, 0.5 * eta, 0.5 * (1 - eta)]])
        assert noise.binary_mutual_information(table) == pytest.approx(eta, abs=1e-12)

    def test_malformed_tables(self):
        with pytest.raises(ValueError):
            noise.binary_mutual_information(np.array([[0.5, 0.6], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            noise.binary_mutual_information(np.array([[-0.1, 0.6], [0.25, 0.25]]))
        with pytest.raises(ValueError):
            noise.binary_mutual_information(np.ones(4) / 4)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        table = rng.random((2, 3))
        table /= table.sum()
        forward = noise.binary_mutual_information(table)
        assert forward >= 0.0
        assert forward == pytest.approx(noise.binary_mutual_information(table.T), abs=1e-12)


class TestAnalyticKeyRate:
    def test_flip_matches_closed_form(self):
        report = noise.analytic_key_rate("flip", eps1=0.1, eps2=0.1)
        assert report.key_rate == pytest.approx(1 - h2(0.1), abs=1e-12)
        assert report.key_rate == pytest.approx(0.5310, abs=1e-4)
        assert report.pairwise_mi[(2, 3)] == pytest.approx(1.0)

    def test_detector_matches_cascade_formula(self):
        report = noise.analytic_key_rate("detector", eta=0.1)
        assert report.min_pair == (2, 3)
        assert report.key_rate == pytest.approx(1 - h2(2 * 0.1 * 0.9), abs=1e-12)
        assert report.key_rate == pytest.approx(0.3199, abs=1e-4)
        assert report.pairwise_mi[(1, 2)] == pytest.approx(1 - h2(0.1), abs=1e-12)

    def test_white_matches_half_eps_flip(self):
        report = noise.analytic_key_rate("white", eps=0.08)
        for value in report.pairwise_mi.values():
            assert value == pytest.approx(1 - h2(0.04), abs=1e-12)

    @pytest.mark.parametrize(
        "model,params",
        [
            ("flip", {}),
            ("white", {}),
            ("detector", {}),
            ("model1", {}),
            ("model2", {"eta": 1.0}),
        ],
    )
    def test_zero_noise_boundary(self, model, params):
        assert noise.analytic_key_rate(model, **params).key_rate == pytest.approx(1.0, abs=1e-12)

    def test_full_noise_boundary(self):
        assert noise.analytic_key_rate("flip", eps1=0.5, eps2=0.5).key_rate == pytest.approx(0.0, abs=1e-12)
        assert noise.analytic_key_rate("white", eps=1.0).key_rate == pytest.approx(0.0, abs=1e-12)
        assert noise.analytic_key_rate("detector", eta=0.5).key_rate == pytest.approx(0.0, abs=1e-12)
        assert noise.analytic_key_rate("model2", eta=0.0).key_rate == pytest.approx(0.0, abs=1e-12)

    def test_flip_symmetry(self):
        a = noise.analytic_key_rate("flip", eps1=0.12, eps2=0.31).key_rate
        b = noise.analytic_key_rate("flip", eps1=0.31, eps2=0.12).key_rate
        assert a == pytest.approx(b, abs=1e-12)

    def test_flip_monotone_along_diagonal(self):
        grid = np.linspace(0.0, 0.5, 101)
        rates = [noise.analytic_key_rate("flip", eps1=e, eps2=e).key_rate for e in grid]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(rates, rates[1:]))

    def test_model1_argmin_switches(self):
        near = noise.analytic_key_rate("model1", eta=0.1, eps1=0.01, eps2=0.01)
        far = noise.analytic_key_rate("model1", eta=0.1, eps1=0.45, eps2=0.45)
        assert near.min_pair == (2, 3)
        assert far.min_pair == (1, 2)

    def test_model2_conventions(self):
        conditional = noise.analytic_key_rate("model2", eta=0.7, eps1=0.1, eps2=0.1, convention="conditional")
        throughput = noise.analytic_key_rate("model2", eta=0.7, eps1=0.1, eps2=0.1, convention="throughput")
        # conditioning on clicks leaves the pure flip channel
        assert conditional.pairwise_mi[(1, 3)] == pytest.approx(1 - h2(0.1), abs=1e-12)
        # the claimed minimizing pair attains the conditional minimum
        assert conditional.pairwise_mi[(1, 3)] == pytest.approx(conditional.key_rate, abs=1e-12)
        assert throughput.pairwise_mi[(1, 3)] == pytest.approx(0.7 * (1 - h2(0.1)), abs=1e-12)
        assert throughput.key_rate < conditional.key_rate

    def test_chsh_flip_minimum_is_the_outer_pair(self):
        report = noise.analytic_key_rate("flip", "chsh", eps1=0.1, eps2=0.1)
        assert report.min_pair == (1, 3)
        assert report.key_rate == pytest.approx(1 - h2(2 * 0.1 * 0.9), abs=1e-12)
        assert report.pairwise_mi[(1, 2)] == pytest.approx(1 - h2(0.1), abs=1e-12)

    def test_unknown_convention_is_rejected(self):
        # also for models without erasures, where no convention is read
        with pytest.raises(ValueError, match="convention"):
            noise.analytic_key_rate("flip", convention="bogus")
        with pytest.raises(ValueError, match="convention"):
            noise.analytic_key_rate("model2", eta=1.0, convention="bogus")

    def test_unknown_model_is_rejected(self):
        with pytest.raises(ValueError, match="model"):
            noise.analytic_key_rate("vortex")


# Test-local copy of the scalar distribution builders the analytic key rate
# was pinned with, one point per call; they prune every branch of zero
# probability, where the module's array builders keep it as an exact 0.0.
ERASED = noise.ERASED


def _flip(bit: int, prob: float):
    """(probability, value) branches of a classical bit flip."""
    if prob <= 0.0:
        return [(1.0, bit)]
    if prob >= 1.0:
        return [(1.0, 1 - bit)]
    return [(1.0 - prob, bit), (prob, 1 - bit)]


def _erase(bit, prob_click: float):
    if prob_click >= 1.0:
        return [(1.0, bit)]
    if prob_click <= 0.0:
        return [(1.0, ERASED)]
    return [(prob_click, bit), (1.0 - prob_click, ERASED)]


def _prep_flip_branches(bit: int, eps1: float, eps2: float):
    return _flip(bit, eps1 if bit == 0 else eps2)


def _mermin_distribution(model: str, eps1: float, eps2: float, eps: float, eta: float):
    """Joint distribution of the three parties' key records for one round."""
    dist: dict[tuple, float] = {}

    def add(prob, triple):
        if prob > 0.0:
            dist[triple] = dist.get(triple, 0.0) + prob

    for b1 in (0, 1):
        p1 = 0.5
        if model == "white":
            # Emitted basis state determines both readers' records directly.
            dim = 8
            target = 0 if b1 == 0 else dim - 1
            emissions = [(1.0 - eps + eps / dim, target)] + [
                (eps / dim, s) for s in range(dim) if s != target
            ]
            for pe, s in emissions:
                digits = ((s >> 2) & 1, (s >> 1) & 1, s & 1)
                add(p1 * pe, (b1, digits[1], digits[2]))
            continue
        e1, e2 = (eps1, eps2) if model in ("flip", "model1", "model2") else (0.0, 0.0)
        for pv, v in _prep_flip_branches(b1, e1, e2):
            if model in ("detector", "model1"):
                for p2, r2 in _flip(v, eta):
                    for p3, r3 in _flip(v, eta):
                        add(p1 * pv * p2 * p3, (b1, r2, r3))
            elif model == "model2":
                for p2, r2 in _erase(v, eta):
                    for p3, r3 in _erase(v, eta):
                        add(p1 * pv * p2 * p3, (b1, r2, r3))
            else:
                add(p1 * pv, (b1, v, v))
    return dist


def _chsh_distribution(model: str, eps1: float, eps2: float, eps: float, eta: float):
    """Same, for the pairwise-grouped protocol where every party re-prepares."""
    dist: dict[tuple, float] = {}

    def add(prob, triple):
        if prob > 0.0:
            dist[triple] = dist.get(triple, 0.0) + prob

    def emit(bit):
        """Reader's bit after one noisy preparation of `bit`."""
        if model == "white":
            if eps <= 0.0:
                return [(1.0, bit)]
            # Uniform basis emission reads as a fair bit.
            return [(1.0 - eps, bit), (eps / 2, 0), (eps / 2, 1)]
        if model in ("flip", "model1", "model2"):
            return _prep_flip_branches(bit, eps1, eps2)
        return [(1.0, bit)]

    def detect(true_bit):
        if model in ("detector", "model1"):
            return _flip(true_bit, eta)
        if model == "model2":
            return _erase(true_bit, eta)
        return [(1.0, true_bit)]

    for b1 in (0, 1):
        for pe1, v1 in emit(b1):
            for pd2, r2 in detect(v1):
                # An erased record re-prepares from a fresh fair draw.
                reprep = [(1.0, r2)] if r2 != ERASED else [(0.5, 0), (0.5, 1)]
                for pr, intent2 in reprep:
                    for pe2, v2 in emit(intent2):
                        for pd3, r3 in detect(v2):
                            add(0.5 * pe1 * pd2 * pr * pe2 * pd3, (b1, r2, r3))
    return dist


# Test-local copy of the numpy pair tables the analytic key rate was first
# computed with: the reference its exact arithmetic must equal bit for bit.
def _numpy_mutual_information(joint) -> float:
    table = np.asarray(joint, dtype=float)
    if table.ndim != 2:
        raise ValueError("joint table must be two-dimensional")
    if np.any(table < -1e-12):
        raise ValueError("joint table has negative entries")
    total = table.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"joint table sums to {total}, expected 1")
    px = table.sum(axis=1)
    py = table.sum(axis=0)
    info = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            p = table[i, j]
            if p > 0.0:
                info += p * math.log2(p / (px[i] * py[j]))
    return float(max(info, 0.0))


def _numpy_pair_table(dist, i, j):
    symbols_i = sorted({k[i] for k in dist}, key=str)
    symbols_j = sorted({k[j] for k in dist}, key=str)
    table = np.zeros((len(symbols_i), len(symbols_j)))
    for key, prob in dist.items():
        table[symbols_i.index(key[i]), symbols_j.index(key[j])] += prob
    return table, symbols_i, symbols_j


def _numpy_pair_mi(dist, i, j, convention):
    table, symbols_i, symbols_j = _numpy_pair_table(dist, i, j)
    if noise.ERASED not in symbols_i and noise.ERASED not in symbols_j:
        return _numpy_mutual_information(table)
    keep_i = [k for k, s in enumerate(symbols_i) if s != noise.ERASED]
    keep_j = [k for k, s in enumerate(symbols_j) if s != noise.ERASED]
    sub = table[np.ix_(keep_i, keep_j)]
    weight = sub.sum()
    if weight <= 0.0:
        return 0.0
    conditional = _numpy_mutual_information(sub / weight)
    if convention == "conditional":
        return conditional
    return float(conditional * weight)


MODEL_PARAMETERS = {
    "flip": ("eps1", "eps2"),
    "white": ("eps",),
    "detector": ("eta",),
    "model1": ("eps1", "eps2", "eta"),
    "model2": ("eps1", "eps2", "eta"),
}


class TestNumpyReference:
    """The analytic key rate equals the numpy pair-table computation bit for bit."""

    @pytest.mark.parametrize("kind", ["mermin", "chsh"])
    @pytest.mark.parametrize("model", noise.MODELS)
    def test_equals_numpy_pair_tables(self, model, kind):
        names = MODEL_PARAMETERS[model]
        edges = [dict(zip(names, values)) for values in itertools.product((0.0, 0.5, 1.0), repeat=len(names))]
        rng = np.random.default_rng(20241018)
        randoms = [dict(zip(names, rng.random(len(names)).tolist())) for _ in range(200)]
        builder = _mermin_distribution if kind == "mermin" else _chsh_distribution
        pairs = [(1, 2), (1, 3), (2, 3)]
        for params in edges + randoms:
            dist = builder(model, *(params.get(name, 0.0) for name in ("eps1", "eps2", "eps", "eta")))
            for convention in ("conditional", "throughput"):
                expected = {(i, j): _numpy_pair_mi(dist, i - 1, j - 1, convention) for i, j in pairs}
                report = noise.analytic_key_rate(model, kind, convention=convention, **params)
                assert report.pairwise_mi == expected, (params, convention)
                min_pair = min(pairs, key=lambda p: expected[p])
                assert report.min_pair == min_pair
                assert report.key_rate == expected[min_pair]

    @pytest.mark.parametrize("kind", ["mermin", "chsh"])
    @pytest.mark.parametrize(
        "model,eta",
        [("flip", None), ("model1", 0.1), ("model2", 0.0), ("model2", 0.7), ("model2", 1.0),
         ("white", None), ("detector", None)],
    )
    def test_whole_grid_equals_reference(self, model, eta, kind):
        # The sweep's grids, computed at once, against the scalar builders
        # and numpy pair tables one point at a time.
        if model in ("white", "detector"):
            name = "eps" if model == "white" else "eta"
            params = {name: np.linspace(0.0, 1.0 if model == "white" else 0.5, 101)}
        else:
            axis = np.linspace(0.0, 0.5, 51)
            params = {"eps1": np.repeat(axis, 51), "eps2": np.tile(axis, 51), "eta": eta or 0.0}
        conventions = ("conditional", "throughput")
        surfaces = noise.analytic_key_rate_surfaces(model, kind, conventions=conventions, **params)
        size = len(surfaces[0].key_rate)
        columns = {name: np.broadcast_to(values, size).tolist() for name, values in params.items()}
        builder = _mermin_distribution if kind == "mermin" else _chsh_distribution
        pairs = [(1, 2), (1, 3), (2, 3)]
        for point in range(size):
            values = {name: column[point] for name, column in columns.items()}
            dist = builder(model, *(values.get(name, 0.0) for name in ("eps1", "eps2", "eps", "eta")))
            for convention, surface in zip(conventions, surfaces):
                expected = {(i, j): _numpy_pair_mi(dist, i - 1, j - 1, convention) for i, j in pairs}
                got = {pair: mi[point] for pair, mi in surface.pairwise_mi.items()}
                assert got == expected, (values, convention)
                min_pair = min(pairs, key=lambda p: expected[p])
                assert noise.PAIRS[surface.min_pair[point]] == min_pair, (values, convention)
                assert surface.key_rate[point] == expected[min_pair], (values, convention)

    @pytest.mark.parametrize("seed", range(5))
    def test_plug_in_equals_numpy_table(self, seed):
        # Key records with erasures, as the empirical key rate tables them:
        # symbols 0, 1 and erased, against a table of the symbols present.
        rng = np.random.default_rng(seed)
        outcomes = rng.choice([-1, 0, 1], size=(500, 3))
        z = protocol.MERMIN_PREFIXES.index("Z")
        config = protocol.ProtocolConfig("mermin", 3, 500)
        transcript = protocol.Transcript(config, np.full((500, 3), z), outcomes, np.zeros(500))
        report = noise.empirical_key_rate(transcript, min_key_rounds=1)
        symbols = [[1 if o == -1 else 0 if o == 1 else noise.ERASED for o in row] for row in outcomes.tolist()]
        for i, j in report.pairwise_mi:
            xs = sorted({row[i - 1] for row in symbols}, key=str)
            ys = sorted({row[j - 1] for row in symbols}, key=str)
            table = np.zeros((len(xs), len(ys)))
            for row in symbols:
                table[xs.index(row[i - 1]), ys.index(row[j - 1])] += 1.0
            assert report.pairwise_mi[(i, j)] == _numpy_mutual_information(table / table.sum())


class TestEmpiricalKeyRate:
    def test_requires_enough_key_rounds(self):
        config = protocol.ProtocolConfig("mermin", 3, 100, seed=31)
        with pytest.raises(noise.InsufficientKeyRounds):
            noise.empirical_key_rate(protocol.run_protocol(config))

    def test_noiseless_rate_is_one(self, mermin3_run):
        report = noise.empirical_key_rate(mermin3_run)
        assert report.key_rate > 0.995

    @pytest.mark.parametrize(
        "model,kwargs,prep,detector",
        [
            ("flip", dict(eps1=0.1, eps2=0.1), noise.FlipPrep(0.1, 0.1), None),
            ("flip", dict(eps1=0.05, eps2=0.25), noise.FlipPrep(0.05, 0.25), None),
            ("flip", dict(eps1=0.4, eps2=0.4), noise.FlipPrep(0.4, 0.4), None),
            ("white", dict(eps=0.1), noise.WhitePrep(0.1), None),
            ("white", dict(eps=0.3), noise.WhitePrep(0.3), None),
            ("white", dict(eps=0.8), noise.WhitePrep(0.8), None),
            ("detector", dict(eta=0.05), None, noise.MisreadDetector(0.05)),
            ("detector", dict(eta=0.1), None, noise.MisreadDetector(0.1)),
            ("detector", dict(eta=0.3), None, noise.MisreadDetector(0.3)),
            ("model1", dict(eta=0.1, eps1=0.1, eps2=0.1), noise.FlipPrep(0.1, 0.1), noise.MisreadDetector(0.1)),
            ("model1", dict(eta=0.1, eps1=0.3, eps2=0.05), noise.FlipPrep(0.3, 0.05), noise.MisreadDetector(0.1)),
            ("model1", dict(eta=0.2, eps1=0.02, eps2=0.02), noise.FlipPrep(0.02, 0.02), noise.MisreadDetector(0.2)),
            ("model2", dict(eta=0.7, eps1=0.1, eps2=0.1), noise.FlipPrep(0.1, 0.1), noise.LossDetector(0.7)),
            ("model2", dict(eta=0.9, eps1=0.05, eps2=0.2), noise.FlipPrep(0.05, 0.2), noise.LossDetector(0.9)),
            ("model2", dict(eta=0.5, eps1=0.3, eps2=0.3), noise.FlipPrep(0.3, 0.3), noise.LossDetector(0.5)),
        ],
    )
    def test_consistency_with_analytic(self, model, kwargs, prep, detector, kind="mermin"):
        # Empirical pair tables converge to the analytic distribution; the
        # plug-in mutual information then lands within a conservative band.
        # Erasure symbols stay in the empirical tables, which matches the
        # throughput convention (independent erasure scales information).
        seed = sum(map(ord, model)) + int(1000 * sum(kwargs.values()))
        config = protocol.ProtocolConfig(
            kind, 3, 100_000 if kind == "mermin" else 50_000, seed=seed,
            masking_enabled=False,
            noise=noise.NoiseConfig(prep=prep, detector=detector),
        )
        transcript = protocol.run_protocol(config)
        empirical = noise.empirical_key_rate(transcript)
        analytic = noise.analytic_key_rate(model, kind, convention="throughput", **kwargs)
        n_key = len(protocol.sift(transcript).key_rounds)
        assert n_key > 3000
        assert abs(empirical.key_rate - analytic.key_rate) < 4 / math.sqrt(n_key) + 0.02

    @pytest.mark.parametrize(
        "model,kwargs,prep,detector",
        [
            # both key settings (Z and XpZ) carry the preparation noise
            ("flip", dict(eps1=0.5, eps2=0.5), noise.FlipPrep(0.5, 0.5), None),
            ("white", dict(eps=0.3), noise.WhitePrep(0.3), None),
            ("model1", dict(eta=0.1, eps1=0.1, eps2=0.1), noise.FlipPrep(0.1, 0.1), noise.MisreadDetector(0.1)),
        ],
    )
    def test_chsh_consistency_with_analytic(self, model, kwargs, prep, detector):
        self.test_consistency_with_analytic(model, kwargs, prep, detector, kind="chsh")

    def test_flip_acceptance_point(self):
        config = protocol.ProtocolConfig(
            "mermin", 3, 100_000, seed=41, masking_enabled=False,
            noise=noise.NoiseConfig(prep=noise.FlipPrep(0.1, 0.1)),
        )
        report = noise.empirical_key_rate(protocol.run_protocol(config))
        assert abs(report.key_rate - 0.5310) < 0.02
