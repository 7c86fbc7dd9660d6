"""Genetic optimizer: spectral scores, fitness shaping, evolution loop."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinchain import (
    GAConfig,
    GAIndividual,
    PinchSpec,
    Spectrum,
    check_mirror_symmetry,
    diagonalize_chain,
    evolve,
    fitness,
    mutation_rate,
    pinched_spectrum,
    q_factor,
    sigma_lambda,
    transfer_fidelity,
)
from spinchain import ga as ga_module
from spinchain.ga import (
    F_CEILING,
    FITNESS_GRID_CHUNK,
    FitnessReport,
    _evaluate_block,
    _shaped,
)

QPST_SHIFTED = (1.0, 2.006, 3.001, 3.994, 4.326)


def small_config(**overrides):
    base = dict(n=4, p=3, generations=8, population=32, samples=401, seed=42)
    base.update(overrides)
    return GAConfig(**base)


class TestQFactor:
    def test_exact_pinched(self):
        for p in (1, 3, 7):
            s = pinched_spectrum(PinchSpec(n=6, p=p, alpha=0.7))
            assert q_factor(s) == pytest.approx(1.0 / p, rel=1e-12)

    def test_pinched_five_site_value(self):
        assert q_factor(Spectrum(values=(1.0, 2.0, 3.0, 4.0, 13.0 / 3.0))) \
            == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_equidistant(self):
        assert q_factor(Spectrum(values=(0.0, 1.0, 2.0, 3.0))) == pytest.approx(1.0)

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            q_factor(Spectrum(values=(0.0, 1.0)))


class TestSigmaLambda:
    def test_exact_pinched_zero(self):
        s = pinched_spectrum(PinchSpec(n=8, p=5, alpha=0.5))
        assert sigma_lambda(s) <= 1e-14

    def test_qpst_hand_value(self):
        # gaps 1.006, 0.995, 0.993 about mean 0.998
        devs = np.array([0.008, -0.003, -0.005])
        expected = np.sqrt(np.mean(devs ** 2))
        assert sigma_lambda(Spectrum(values=QPST_SHIFTED)) \
            == pytest.approx(expected, abs=1e-12)

    def test_equal_lower_gaps(self):
        assert sigma_lambda(Spectrum(values=(0.0, 1.0, 2.0, 4.0))) == 0.0

    def test_needs_four_levels(self):
        with pytest.raises(ValueError):
            sigma_lambda(Spectrum(values=(0.0, 1.0, 2.0)))


class TestMutationRate:
    def test_endpoints_and_midpoint(self):
        cfg = small_config(generations=100, mu_i=0.20, mu_f=0.01)
        assert mutation_rate(0, cfg) == pytest.approx(0.20)
        assert mutation_rate(100, cfg) == pytest.approx(0.01)
        assert mutation_rate(50, cfg) == pytest.approx(0.105)

    def test_out_of_range(self):
        cfg = small_config(generations=10)
        with pytest.raises(ValueError):
            mutation_rate(11, cfg)

    def test_zero_generations_is_mu_i(self):
        assert mutation_rate(0, small_config(generations=0, mu_i=0.2, mu_f=0.01)) == 0.2


class TestFitness:
    def test_qpst_reference_genome(self):
        cfg = GAConfig(n=5, p=3)
        rep = fitness(GAIndividual(genome=(3.40, 2.60, 2.33), coupling=0.91), cfg)
        assert rep.f_max == pytest.approx(0.9998, abs=5e-4)
        assert rep.best_time == pytest.approx(8.63, abs=0.05)
        assert rep.q == pytest.approx(1.0 / 3.0, abs=5e-3)

    def test_fidelity_ignored_when_a_zero(self):
        cfg = GAConfig(n=5, p=3, a=0.0)
        r1 = fitness(GAIndividual(genome=(3.40, 2.60, 2.33)), cfg)
        r2 = fitness(GAIndividual(genome=(1.0, 0.5, 0.1)), cfg)
        assert r1.fitness == r2.fitness == -1.0

    def test_bounds(self):
        rng = np.random.default_rng(9)
        cfg = small_config()
        for _ in range(10):
            ind = GAIndividual(genome=tuple(rng.uniform(0, 5, 2)))
            rep = fitness(ind, cfg)
            assert -1.0 <= rep.fitness <= 1.0
            assert rep.upsilon >= 0.0

    def test_individual_expansion_palindromic(self):
        ind = GAIndividual(genome=(1.0, 2.0, 3.0))
        assert np.array_equal(ind.expand_onsite(5), [1.0, 2.0, 3.0, 2.0, 1.0])
        assert np.array_equal(ind.expand_onsite(6), [1.0, 2.0, 3.0, 3.0, 2.0, 1.0])

    def test_individual_chain_in_negative_convention(self):
        chain = GAIndividual(genome=(1.0, 2.0), coupling=-0.7).to_chain(4)
        assert chain.sign_convention == "negative"
        assert chain.couplings == (0.7, 0.7, 0.7)
        assert chain.onsite == (1.0, 2.0, 2.0, 1.0)

    @pytest.mark.parametrize("n", [4, 7])
    def test_individual_wrong_genome_length(self, n):
        with pytest.raises(ValueError, match=f"^genome length 3 does not fit n={n}$"):
            GAIndividual(genome=(1.0, 2.0, 3.0)).expand_onsite(n)


@st.composite
def palindromic_blocks(draw):
    """A few genomes for one random chain length, coupling and grid size."""
    n = draw(st.integers(4, 12))
    coupling = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.2, 5.0))
    samples = draw(st.sampled_from([2, 3, 4, 401, 2001]))
    rows = draw(st.integers(1, 3))
    genome = st.lists(st.floats(0.0, 5.0), min_size=(n + 1) // 2,
                      max_size=(n + 1) // 2)
    genomes = draw(st.lists(genome, min_size=rows, max_size=rows))
    return GAConfig(n=n, p=3, coupling=coupling, samples=samples), np.array(genomes)


class TestFidelityGrid:
    @settings(max_examples=40, deadline=None)
    @given(palindromic_blocks())
    # a Q that a full-size dense eigh of the palindrome misses by 3.5e-10 (relative)
    @example((GAConfig(n=10, p=3, coupling=0.5), np.array([[4.9, 1.5, 3.2, 2.9, 2.4]])))
    def test_matches_scalar_fidelity(self, block):
        # independent path: tridiagonal eigensolver plus the scalar amplitude
        cfg, genomes = block
        _, f_max, _, q, sigma, t_best = _evaluate_block(genomes, cfg)
        j = abs(cfg.coupling)
        times = np.linspace(0.0, cfg.window, cfg.samples) / j
        for row, genome in enumerate(genomes):
            es = diagonalize_chain(GAIndividual(tuple(genome), cfg.coupling).to_chain(cfg.n))
            grid = [transfer_fidelity(es, t) for t in times]
            assert f_max[row] == pytest.approx(max(grid), rel=0, abs=1e-12)
            assert transfer_fidelity(es, t_best[row] / j) \
                == pytest.approx(f_max[row], rel=0, abs=1e-12)
            # near-degenerate levels leave Q to the solvers' rounding
            if np.diff(es.values).min() > 1e-6 * np.ptp(es.values):
                spectrum = Spectrum(values=tuple(es.values))
                assert q[row] == pytest.approx(q_factor(spectrum), rel=1e-12, abs=0)
                assert sigma[row] == pytest.approx(sigma_lambda(spectrum), rel=0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 40), st.sampled_from([-1.0, 1.0]), st.floats(0.2, 5.0),
           st.sampled_from([0.0, 1.0, 10.0]), st.sampled_from([0.0, 1.0, 10.0]),
           st.integers(0, 2**16))
    def test_fitness_bounded_by_spectrum(self, n, sign, magnitude, a, b, seed):
        # the bound evolve() prunes with: F never exceeds F_CEILING, and a
        # row's fitness never exceeds the fitness formula at F_CEILING
        cfg = GAConfig(n=n, p=3, coupling=sign * magnitude, a=a, b=b, samples=401)
        genomes = np.random.default_rng(seed).uniform(0.0, 5.0, (40, cfg.genome_length))
        fit, f_max, upsilon, *_ = _evaluate_block(genomes, cfg)
        assert np.all(f_max <= F_CEILING)
        assert np.all(fit <= _shaped(F_CEILING, upsilon, cfg))

    def test_rows_independent_of_block(self):
        # fitness() scores a one-row block and evolve() scores a generation's
        # new rows as a short block; each row must equal, bit for bit, the
        # same genome scored inside a full population, on both sides of a
        # chunk boundary
        cfg = GAConfig(n=5, p=3)
        genomes = np.random.default_rng(3).uniform(0.0, 5.0, (1024, cfg.genome_length))
        block = _evaluate_block(genomes, cfg)
        for row in (0, FITNESS_GRID_CHUNK - 1, FITNESS_GRID_CHUNK, 1023):
            rep = fitness(GAIndividual(tuple(genomes[row]), cfg.coupling), cfg)
            assert (rep.fitness, rep.f_max, rep.upsilon, rep.q, rep.sigma,
                    rep.best_time) == tuple(column[row] for column in block)
        picked = np.random.default_rng(4).choice(1024, FITNESS_GRID_CHUNK + 1,
                                                 replace=False)
        for got, column in zip(_evaluate_block(genomes[picked], cfg), block):
            assert np.array_equal(got, column[picked])

    def test_block_grids_a_chunk_at_a_time(self):
        # 1024 rows of (9, 9) peak at ~2.5 MiB when gridded FITNESS_GRID_CHUNK
        # rows at a time, and at ~55 MiB in one grid
        cfg = GAConfig(n=9, p=9)
        genomes = np.random.default_rng(9).uniform(0.0, 5.0, (1024, cfg.genome_length))
        _evaluate_block(genomes[:FITNESS_GRID_CHUNK], cfg)  # warm numpy's caches
        tracemalloc.start()
        try:
            _evaluate_block(genomes, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("n, p", [(4, 3), (5, 3), (9, 9)])
    def test_block_matches_direct_grid(self, n, p):
        # a full seeded population against the direct exp(-i lam t) grid of
        # each genome's own tridiagonal eigensystem
        cfg = GAConfig(n=n, p=p)
        genomes = np.random.default_rng(n).uniform(0.0, 5.0, (1024, cfg.genome_length))
        _, f_max, _, _, _, t_best = _evaluate_block(genomes, cfg)
        t = np.arange(cfg.samples) * (cfg.window / (cfg.samples - 1))
        for row, genome in enumerate(genomes):
            es = diagonalize_chain(GAIndividual(tuple(genome)).to_chain(n))
            w = es.vectors[0] * es.vectors[-1]
            direct = np.abs(np.exp(-1j * np.outer(t, es.values)) @ w) ** 2
            best = int(np.argmax(direct))
            assert f_max[row] == pytest.approx(direct[best], rel=0, abs=1e-12)
            assert t_best[row] == best * (cfg.window / (cfg.samples - 1))


class TestEvolve:
    def test_deterministic(self):
        cfg = small_config()
        a, b = evolve(cfg), evolve(cfg)
        assert a.history == b.history
        assert a.best.genome == b.best.genome

    def test_elitism_monotone(self):
        report = evolve(small_config(generations=20))
        best = [h["best_f"] for h in report.history]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))

    def test_history_rows(self):
        report = evolve(small_config(generations=5))
        assert [h["generation"] for h in report.history] == list(range(6))

    @pytest.mark.parametrize("shape", [(32, 3), (30, 2), (64,)])
    def test_initial_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError) as info:
            evolve(small_config(), initial=np.ones(shape))
        assert str(info.value) == f"initial population must have shape (32, 2), got {shape}"

    def test_zero_generations_returns_initial_best(self):
        report = evolve(small_config(generations=0))
        assert len(report.history) == 1
        assert report.best_report.fitness == report.history[0]["best_f"]

    def test_no_variation_keeps_history_flat(self):
        # identical individuals, zero mutation: nothing can change, and every
        # child is a copy, so no row (and no empty block) is scored after
        # generation 0
        cfg = small_config(generations=6, mu_i=0.0, mu_f=0.0)
        clones = np.tile([2.5, 1.0], (cfg.population, 1))
        report, fresh, gridded = counted_evolve(cfg, initial=clones)
        assert fresh == [cfg.population]
        assert len(gridded) == 1 and gridded[0] <= fresh[0]
        assert all(row | {"generation": 0} == report.history[0]
                   for row in report.history)

    def test_best_chain_is_uniform_and_mirror_symmetric(self):
        report = evolve(small_config())
        chain = report.best_chain()
        assert np.ptp(np.abs(chain.couplings)) == 0.0
        ok, _ = check_mirror_symmetry(chain)
        assert ok

    def test_seeded_parabolic_profile(self):
        report = evolve(small_config(seed_parabolic=True, generations=2))
        assert len(report.history) == 3

    def test_scores_only_new_genomes(self):
        # a reference loop that rescores every genome, with evolve's own draws,
        # counts the children that differ from both their parents: only those
        # may reach the fitness kernel after generation 0
        cfg = small_config(generations=20)
        report, scored, gridded = counted_evolve(cfg)
        history, fresh, _ = rescoring_evolve(cfg)
        assert report.history == history
        assert scored[0] == cfg.population
        assert sum(scored[1:]) == fresh < cfg.population * cfg.generations
        assert all(g <= s for g, s in zip(gridded, scored, strict=True))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_pruned_search_equals_full_rescoring(self, data):
        # rows kept off the grid must never change the search: history, best
        # genome and best report equal, bit for bit, a loop that grids every
        # row of every generation
        n = data.draw(st.integers(4, 12), label="n")
        cfg = GAConfig(
            n=n, p=data.draw(st.sampled_from([1, 3, 9]), label="p"),
            population=2 * data.draw(st.integers(1, 65), label="population/2"),
            generations=data.draw(st.integers(0, 5), label="generations"),
            a=data.draw(st.sampled_from([0.0, 1.0, 10.0]), label="a"),
            b=data.draw(st.sampled_from([0.0, 1.0, 10.0]), label="b"),
            mu_f=data.draw(st.sampled_from([0.0, 0.01]), label="mu_f"),
            samples=data.draw(st.sampled_from([3, 401, 2001]), label="samples"),
            seed_parabolic=data.draw(st.booleans(), label="seed_parabolic"),
            seed=data.draw(st.integers(0, 2**16), label="seed"))
        initial = None
        if data.draw(st.booleans(), label="clones"):
            genome = np.random.default_rng(cfg.seed).uniform(0.0, 5.0, cfg.genome_length)
            initial = np.tile(genome, (cfg.population, 1))
        report = evolve(cfg, initial=initial)
        history, _, (genome, best_report) = rescoring_evolve(cfg, initial=initial)
        assert report.history == history
        assert report.best.genome == genome
        assert report.best_report == best_report

    def test_grids_under_60_percent_of_fresh_rows(self):
        # a criterion-10 sized generation keeps half its rows and the final
        # one only its best, so most fresh rows never reach the grid
        report, fresh, gridded = counted_evolve(
            GAConfig(n=5, p=3, population=1024, generations=2, seed=11))
        assert sum(gridded) < 0.6 * sum(fresh)

    @pytest.mark.parametrize("n, p", [(4, 3), (5, 3), (9, 9)])
    def test_best_report_is_fitness_of_best(self, n, p):
        # the best row's scores, inherited over generations, equal a fresh score
        cfg = GAConfig(n=n, p=p, population=64, seed=n)
        report = evolve(cfg)
        assert report.best_report == fitness(report.best, cfg)

    def test_regression_pin(self):
        # recorded with the cumprod phase-recursion kernel; any rewrite of the
        # fidelity grid must reproduce the same search
        report = evolve(small_config())
        for row, (best_f, f_max, q, sigma) in zip(report.history, PINNED_HISTORY):
            assert row["best_f"] == pytest.approx(best_f, rel=0, abs=1e-12)
            assert row["best_Fmax"] == pytest.approx(f_max, rel=0, abs=1e-12)
            assert row["best_Q"] == pytest.approx(q, rel=0, abs=1e-12)
            assert row["best_sigma"] == pytest.approx(sigma, rel=0, abs=1e-12)
        assert len(report.history) == len(PINNED_HISTORY)
        assert report.best.genome == PINNED_GENOME


def counted_evolve(cfg, initial=None):
    """evolve(), and per scoring generation the rows it solved (fresh) and the
    rows of those that reached the fidelity grid."""
    fresh, gridded = [], []
    spectral_stage, grid_stage = ga_module._spectral_stage, ga_module._grid_stage

    def counted_spectral(genomes, config):
        fresh.append(len(genomes))
        gridded.append(0)
        return spectral_stage(genomes, config)

    def counted_grid(lam, w, config):
        gridded[-1] += len(lam)
        return grid_stage(lam, w, config)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ga_module, "_spectral_stage", counted_spectral)
        mp.setattr(ga_module, "_grid_stage", counted_grid)
        return evolve(cfg, initial=initial), fresh, gridded


def rescoring_evolve(cfg, initial=None):
    """evolve()'s generational loop, rescoring every genome every generation.

    Returns the history, the number of children that differ from both their
    parents, summed over generations 1..G, and the best genome with its
    FitnessReport.
    """
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.bounds
    pop, half = cfg.population, cfg.genome_length
    if initial is not None:
        genomes = np.array(initial, dtype=float)
    else:
        genomes = rng.uniform(lo, hi, size=(pop, half))
    if cfg.seed_parabolic:
        genomes[0] = ga_module._parabolic_genome(cfg)
    scores = _evaluate_block(genomes, cfg)
    history, fresh = [], 0

    def record(g):
        j = int(np.argmax(scores[0]))
        history.append({"generation": g, "best_f": float(scores[0][j]),
                        "best_Fmax": float(scores[1][j]),
                        "best_Q": float(scores[3][j]),
                        "best_sigma": float(scores[4][j])})

    record(0)
    for g in range(1, cfg.generations + 1):
        mu = mutation_rate(g, cfg)
        order = np.argsort(-scores[0], kind="stable")
        parents = genomes[order[: pop // 2]]
        ia = rng.integers(0, pop // 2, size=pop - 1)
        ib = rng.integers(0, pop // 2, size=pop - 1)
        take_a = rng.random((pop - 1, half)) < 0.5
        children = np.where(take_a, parents[ia], parents[ib])
        mutate = rng.random((pop - 1, half)) < mu
        width = cfg.mutation_width_frac * (hi - lo)
        if cfg.mu_i > 0:
            width *= mu / cfg.mu_i
        children = children + mutate * rng.normal(0.0, 1.0, size=(pop - 1, half)) * width
        np.clip(children, lo, hi, out=children)
        fresh += sum(not (np.array_equal(c, parents[a]) or np.array_equal(c, parents[b]))
                     for c, a, b in zip(children, ia, ib))
        genomes = np.vstack([genomes[order[0]][None, :], children])
        scores = _evaluate_block(genomes, cfg)
        record(g)
    j = int(np.argmax(scores[0]))
    return history, fresh, (tuple(genomes[j]), FitnessReport(*(float(s[j]) for s in scores)))


# evolve(small_config()): (best_f, best_Fmax, best_Q, best_sigma) per generation
PINNED_HISTORY = [
    (0.9892491341015675, 0.9985048621802259, 0.386480062838063, 0.000817309932094612),
    (0.9896743910864868, 0.9840190016573971, 0.2996465978852913, 0.017379888418144862),
    (0.9973014478336347, 0.9988348262973069, 0.3403545167181805, 0.006474064852565076),
    (0.9973014478336347, 0.9988348262973069, 0.3403545167181805, 0.006474064852565076),
    (0.9982275701284253, 0.9997300549874097, 0.3345582904711831, 0.007642658540461644),
    (0.9982275701284253, 0.9997300549874097, 0.3345582904711831, 0.007642658540461644),
    (0.9982275701284253, 0.9997300549874097, 0.3345582904711831, 0.007642658540461644),
    (0.9982275701284253, 0.9997300549874097, 0.3345582904711831, 0.007642658540461644),
    (0.9982275701284253, 0.9997300549874097, 0.3345582904711831, 0.007642658540461644),
]
PINNED_GENOME = (4.6348462970555415, 3.3871066973909714)


class TestConfigValidation:
    def test_odd_population_rejected(self):
        with pytest.raises(ValueError):
            small_config(population=33)

    def test_even_p_rejected(self):
        with pytest.raises(ValueError):
            small_config(p=2)

    @pytest.mark.parametrize("field, value, message", [
        ("n", 3, "GA spectral penalty needs at least 4 sites"),
        ("generations", -1, "generations must be nonnegative"),
        ("coupling", 0.0, "coupling must be nonzero"),
        ("samples", 1, "need at least 2 fidelity samples"),
        ("bounds", (-1e308, 1e308), "bounds width must be finite, got inf"),
        ("mutation_width_frac", 1e308, "mutation width must be finite, got inf"),
        ("coupling", 1e-320, "window / |coupling| must be positive and finite, got inf"),
    ])
    def test_out_of_range_fields(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**{field: value})

    def test_mu_ordering(self):
        with pytest.raises(ValueError):
            small_config(mu_i=0.01, mu_f=0.2)

    @pytest.mark.parametrize("window", [-5.0, 0.0, np.inf, np.nan])
    def test_window_positive_and_finite(self, window):
        with pytest.raises(ValueError, match="window must be positive and finite"):
            small_config(window=window)

    @pytest.mark.parametrize("field", ["n", "p", "generations", "population",
                                       "samples", "seed"])
    @pytest.mark.parametrize("cast", [float, bool])
    def test_integer_fields_need_int(self, field, cast):
        value = getattr(small_config(), field)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            small_config(**{field: cast(value)})

    @pytest.mark.parametrize("field", ["mu_i", "mu_f", "a", "b", "coupling",
                                       "mutation_width_frac"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_real_fields_need_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            small_config(**{field: value})

    @pytest.mark.parametrize("bounds", [(0.0, np.inf), (-np.inf, 5.0), (0.0, np.nan),
                                        (0.0,), (0.0, 2.0, 5.0)])
    def test_bounds_need_finite_pair(self, bounds):
        with pytest.raises(ValueError, match="bounds must be (finite|an increasing pair)"):
            small_config(bounds=bounds)

    def test_bounds_list_is_the_tuple(self):
        # a JSON-style list is stored as the tuple, so the config hashes and
        # equals the default one
        cfg = small_config(bounds=[0.0, 5.0])
        assert cfg.bounds == (0.0, 5.0) and type(cfg.bounds) is tuple
        assert cfg == small_config() and hash(cfg) == hash(small_config())
        assert cfg.to_dict() == small_config().to_dict()

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, np.bool_(False)])
    def test_seed_parabolic_needs_bool(self, value):
        with pytest.raises(ValueError) as info:
            small_config(seed_parabolic=value)
        assert str(info.value) == f"seed_parabolic must be a bool, got {value!r}"

    def test_mutation_width_nonnegative(self):
        with pytest.raises(ValueError, match="mutation_width_frac must be nonnegative"):
            small_config(mutation_width_frac=-0.05)

    def test_json_roundtrip(self):
        cfg = small_config()
        assert GAConfig.from_dict(cfg.to_dict()) == cfg
