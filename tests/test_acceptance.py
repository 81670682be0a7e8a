"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure report).  Statistical criteria use fixed seeds, so the suite is
deterministic end to end.
"""

import json
import math
import time

import numpy as np
import pytest

import conftest
import dense
from contextkey import adversary, cli, inequality, noise, protocol, qmath
from contextkey.adversary import EveConfig
from conftest import ghz_state, singlet_state

SQRT2 = math.sqrt(2)


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


class TestCriterion1ExactMermin:
    def test_values_and_oracle(self):
        start = time.perf_counter()
        for num_parties in (2, 3, 4, 5):
            state = ghz_state(num_parties)
            value = dense.mermin_value(state)
            expected = 2.0 ** (num_parties - 1)
            assert abs(value - expected) < 1e-10
            spec = inequality.mermin_spec(num_parties)
            oracle = abs(sum(
                coeff * dense.oracle_expectation(
                    state, [qmath.PAULI[inequality.split_label(lab)[0]] for lab in labels]
                )
                for coeff, labels in spec.terms
            ))
            assert abs(oracle - expected) < 1e-10
        elapsed = time.perf_counter() - start
        report("1 (exact Mermin values, oracle-confirmed)", elapsed < 1.0,
               f"N=2..5 equal 2^(N-1); {elapsed:.2f}s")

    @pytest.mark.parametrize("num_parties", [3, 4, 5])
    def test_strict_violation(self, num_parties):
        spec = inequality.mermin_spec(num_parties)
        value = dense.mermin_value(ghz_state(num_parties), spec)
        report(f"1 (strict violation, N={num_parties})", value > spec.classical_bound + 1e-10,
               f"{value:.1f} > {spec.classical_bound:.1f}")

    @pytest.mark.xfail(
        strict=True,
        reason="at N=2 the quantum value 2^(N-1)=2 equals the even-N classical bound "
        "2^(N/2)=2 (the operator norm of the two-party combination is 2), so a strict "
        "violation is mathematically unattainable; see the decisions ledger",
    )
    def test_strict_violation_n2(self):
        spec = inequality.mermin_spec(2)
        value = dense.mermin_value(ghz_state(2), spec)
        assert value > spec.classical_bound + 1e-10


class TestCriterion2ExactChsh:
    def test_singlet_value(self):
        start = time.perf_counter()
        value = dense.chsh_value(singlet_state())
        elapsed = time.perf_counter() - start
        ok = abs(value - 2.0) < 1e-10 and value > SQRT2 and elapsed < 1.0
        report("2 (exact CHSH violation)", ok, f"value {value:.12f} > √2; {elapsed:.2f}s")


class TestCriterion3MonteCarlo:
    def test_mermin_estimate(self, mermin3_run):
        estimate = protocol.mermin_check_estimate(mermin3_run)
        band = 3 * estimate.standard_error + 1e-9
        report("3 (Mermin Monte-Carlo, masking on)", abs(estimate.value - 4.0) <= band,
               f"estimate {estimate.value:.4f} ± {estimate.standard_error:.4f}")

    def test_chsh_pair_estimates(self, chsh3_run):
        estimates = protocol.chsh_pair_estimates(chsh3_run)
        ok = all(abs(est.value - 2.0) <= 3 * est.standard_error + 1e-9 for est in estimates.values())
        detail = ", ".join(f"pair {k}: {est.value:.4f}±{est.standard_error:.4f}"
                           for k, est in estimates.items())
        report("3 (CHSH pair Monte-Carlo)", ok, detail)

    def test_runtime_budget(self, mermin3_run, chsh3_run):
        elapsed = conftest.RUN_TIMES["mermin3_run"] + conftest.RUN_TIMES["chsh3_run"]
        report("3 (runtime budget)", elapsed < 60.0, f"two 1e5-round runs took {elapsed:.1f}s")


class TestCriterion4KeyFractions:
    def test_mermin_fraction(self, mermin3_run):
        sifting = protocol.sift(mermin3_run)
        expected = 1 / 27
        fraction = len(sifting.key_rounds) / mermin3_run.config.rounds
        sigma = math.sqrt(expected * (1 - expected) / mermin3_run.config.rounds)
        report("4 (Mermin key fraction 1/27)", abs(fraction - expected) <= 3 * sigma,
               f"{fraction:.5f} vs {expected:.5f} ± {3 * sigma:.5f}")

    def test_chsh_fraction(self, chsh3_run):
        sifting = protocol.sift(chsh3_run)
        expected = 2 / 27
        fraction = len(sifting.key_rounds) / chsh3_run.config.rounds
        sigma = math.sqrt(expected * (1 - expected) / chsh3_run.config.rounds)
        report("4 (CHSH key fraction 2/27)", abs(fraction - expected) <= 3 * sigma,
               f"{fraction:.5f} vs {expected:.5f} ± {3 * sigma:.5f}")


class TestCriterion5KeyAgreement:
    def test_masking_on(self, mermin3_agreement_run, chsh3_agreement_run):
        ok = True
        details = []
        for transcript in (mermin3_agreement_run, chsh3_agreement_run):
            key = protocol.extract_key(protocol.sift(transcript))
            details.append(f"{transcript.config.kind}: {key.agreement_fraction} over {key.num_complete}")
            ok = ok and key.agreement_fraction == 1.0 and key.num_complete == key.num_key_rounds
        report("5 (noiseless agreement, masking on)", ok, "; ".join(details))

    @pytest.mark.parametrize("kind,parties", [("mermin", 3), ("chsh", 3)])
    def test_masking_off(self, kind, parties):
        config = protocol.ProtocolConfig(kind, parties, 30_000, seed=505, masking_enabled=False)
        key = protocol.extract_key(protocol.sift(protocol.run_protocol(config)))
        report(f"5 (noiseless agreement, masking off, {kind})",
               key.agreement_fraction == 1.0, f"{key.num_complete} key rounds")


class TestCriterion6MaskingInvariance:
    def test_operator_identities_thousand_draws(self):
        rng = np.random.default_rng(606)
        indexing = qmath.PartyIndexing(3)
        spec1 = dense.MaskingSpec(3, ("X1", "Y1", "Z1"))
        spec2 = dense.MaskingSpec(3, ("X1", "Y1", "Z1", "X2", "Y2", "Z2"))
        spec3 = dense.MaskingSpec(3, tuple(f"{a}{p}" for p in (1, 2, 3) for a in "XYZ"))
        worst = 0.0
        for _ in range(1000):
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            state = dense.StateVector(amps / np.linalg.norm(amps))
            u1 = dense.masking_unitary(1, spec1, rng, indexing)
            u12 = dense.masking_unitary(2, spec2, rng, indexing)
            u123 = dense.masking_unitary(3, spec3, rng, indexing)
            masked = dense.apply_unitary(state, u1)
            # (i) expectations of later-party observables are invariant
            axis = "XYZ"[int(rng.integers(3))]
            party = int(rng.integers(2, 4))
            obs = dense.pauli(axis, party, indexing)
            op = dense.HermitianOperator(obs.operator().matrix)
            worst = max(worst, abs(dense.expectation(masked, op) - dense.expectation(state, op)))
            # (ii) eigenstates of later-party observables stay eigenstates
            outcome, eigenstate = dense.measure_projective(state, obs, rng)
            rotated = dense.apply_unitary(eigenstate, u1)
            worst = max(
                worst,
                float(np.max(np.abs(op.matrix @ rotated.amplitudes - outcome * rotated.amplitudes))),
            )
            # (iii) sequential correlations are invariant
            projectors = [
                dense.pauli("XYZ"[int(rng.integers(3))], party, indexing).projector(
                    1 if rng.random() < 0.5 else -1
                )
                for party in (1, 2, 3)
            ]
            chain = u123.matrix @ projectors[2] @ u12.matrix @ projectors[1] @ u1.matrix @ projectors[0]
            masked_corr = np.vdot(state.amplitudes, chain.conj().T @ chain @ state.amplitudes)
            bare_corr = np.vdot(
                state.amplitudes, projectors[0] @ projectors[1] @ projectors[2] @ state.amplitudes
            )
            worst = max(worst, abs(masked_corr - bare_corr))
        report("6 (masking identities i-iii, 1000 draws)", worst < 1e-10, f"worst residue {worst:.2e}")

    def test_empirical_statistics_agree(self):
        base = dict(num_parties=3, rounds=30_000)
        mermin_on = protocol.run_protocol(protocol.ProtocolConfig("mermin", seed=607, masking_enabled=True, **base))
        mermin_off = protocol.run_protocol(protocol.ProtocolConfig("mermin", seed=607, masking_enabled=False, **base))
        est_on, est_off = (protocol.mermin_check_estimate(t) for t in (mermin_on, mermin_off))
        ok = abs(est_on.value - est_off.value) <= 3 * math.hypot(est_on.standard_error, est_off.standard_error) + 1e-9
        chsh_on = protocol.run_protocol(protocol.ProtocolConfig("chsh", seed=608, masking_enabled=True, **base))
        chsh_off = protocol.run_protocol(protocol.ProtocolConfig("chsh", seed=608, masking_enabled=False, **base))
        for k in (1, 2):
            a = protocol.chsh_pair_estimates(chsh_on)[k]
            b = protocol.chsh_pair_estimates(chsh_off)[k]
            ok = ok and abs(a.value - b.value) <= 3 * math.hypot(a.standard_error, b.standard_error) + 1e-9
        report("6 (check statistics, masking on vs off)", ok)


class TestCriterion7CommutingAttack:
    def test_unmasked_leak(self):
        eve = EveConfig(position=1, observable="Z1", strategy="commuting-measure")
        config = protocol.ProtocolConfig("mermin", 3, 100_000, seed=707, masking_enabled=False, eve=eve)
        leak = adversary.leakage_analysis(protocol.run_protocol(config))
        estimate = leak.observed["mermin"]
        ok = (
            abs(estimate.value - 4.0) <= 3 * estimate.standard_error + 1e-9
            and not leak.detected
            and leak.eve_key_mutual_information >= 0.99
        )
        report("7 (commuting attack, masking off)", ok,
               f"MI {leak.eve_key_mutual_information:.4f} bit, estimate {estimate.value:.3f}, undetected")

    def test_masked_denial(self):
        eve = EveConfig(position=1, observable="Z1", strategy="commuting-measure")
        config = protocol.ProtocolConfig("mermin", 3, 100_000, seed=708, masking_enabled=True, eve=eve)
        transcript = protocol.run_protocol(config)
        leak = adversary.leakage_analysis(transcript)
        key = protocol.extract_key(protocol.sift(transcript))
        ok = (
            not leak.detected
            and leak.eve_key_mutual_information < 0.01
            and key.agreement_fraction == 1.0
        )
        report("7 (commuting attack, masking on)", ok,
               f"MI {leak.eve_key_mutual_information:.5f} bit, agreement {key.agreement_fraction}")


class TestCriterion8NonCommutingDetection:
    def test_x3_attack_drops_to_two(self, tmp_path, monkeypatch):
        eve = EveConfig(position=2, observable="X3", strategy="noncommuting-measure")
        config = protocol.ProtocolConfig("mermin", 3, 60_000, seed=809, eve=eve)
        estimate = protocol.mermin_check_estimate(protocol.run_protocol(config))
        ok = abs(estimate.value - 2.0) <= 3 * estimate.standard_error + 1e-9 and not estimate.violated
        report("8 (noncommuting attack statistic)", ok,
               f"estimate {estimate.value:.4f} ± {estimate.standard_error:.4f}, no violation")
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        code = cli.main([
            "attack", "--kind", "mermin", "--parties", "3", "--rounds", "20000",
            "--seed", "810", "--eve-link", "2", "--eve-obs", "X3",
            "--outdir", str(tmp_path),
        ])
        report("8 (exit code signals no violation)", code == cli.EXIT_NO_VIOLATION, f"exit {code}")


class TestCriterion9Localization:
    def test_four_party_chsh(self):
        eve = EveConfig(position=2, observable="Z1", strategy="noncommuting-measure")
        config = protocol.ProtocolConfig("chsh", 4, 100_000, seed=909, eve=eve)
        estimates = protocol.chsh_pair_estimates(protocol.run_protocol(config))
        targets = {1: 2.0, 2: 1.0, 3: 2.0}
        ok = all(
            abs(estimates[k].value - target) <= 3 * estimates[k].standard_error + 1e-9
            for k, target in targets.items()
        )
        located = adversary.localize_eve(estimates)
        ok = ok and located == frozenset({2})
        detail = ", ".join(f"pair {k}: {estimates[k].value:.3f}" for k in (1, 2, 3))
        report("9 (eavesdropper localization)", ok, f"{detail}; located {sorted(located)}")


class TestCriterion10NoiseSurfaces:
    def test_zero_noise_ideal_rate(self):
        cases = {
            "flip": {},
            "white": {},
            "detector": {},
            "model1": {},
            "model2": {"eta": 1.0},
        }
        worst = max(abs(noise.analytic_key_rate(m, **kw).key_rate - 1.0) for m, kw in cases.items())
        report("10 (zero-noise rate is 1 for every model)", worst < 1e-12, f"worst deviation {worst:.1e}")

    def test_flip_reference_point_analytic(self):
        rate = noise.analytic_key_rate("flip", eps1=0.1, eps2=0.1).key_rate
        report("10 (flip analytic 0.5310)", abs(rate - 0.5310) < 1e-4, f"{rate:.6f}")

    def test_flip_reference_point_empirical(self):
        config = protocol.ProtocolConfig(
            "mermin", 3, 300_000, seed=1010, masking_enabled=False,
            noise=noise.NoiseConfig(prep=noise.FlipPrep(0.1, 0.1)),
        )
        rate = noise.empirical_key_rate(protocol.run_protocol(config)).key_rate
        report("10 (flip empirical 0.531 ± 0.02)", abs(rate - 0.5310) < 0.02, f"{rate:.4f}")

    def test_detector_reference_point(self):
        rate = noise.analytic_key_rate("detector", eta=0.1).key_rate
        report("10 (detector analytic 0.3199)", abs(rate - 0.3199) < 1e-4, f"{rate:.6f}")

    def test_model1_argmin_switch(self):
        grid = np.linspace(0.0, 0.5, 51)
        argmins = set()
        for eps in grid:
            argmins.add(noise.analytic_key_rate("model1", eta=0.1, eps1=eps, eps2=eps).min_pair)
        report("10 (model I minimizing pair switches)", {(1, 2), (2, 3)} <= argmins, str(sorted(argmins)))

    def test_model2_both_conventions_emitted(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        code = cli.main(["sweep", "--model", "model2", "--eta", "0.7", "--grid", "11",
                         "--outdir", str(tmp_path)])
        header = (tmp_path / "sweep-model2-mermin-eta0.7.csv").read_text().splitlines()[0]
        ok = code == 0 and "key_rate_conditional" in header and "key_rate_throughput" in header
        report("10 (model II surfaces under both conventions)", ok)

    def test_flip_symmetry_and_monotonicity(self):
        symmetric = abs(
            noise.analytic_key_rate("flip", eps1=0.1, eps2=0.3).key_rate
            - noise.analytic_key_rate("flip", eps1=0.3, eps2=0.1).key_rate
        )
        grid = np.linspace(0.0, 0.5, 101)
        rates = [noise.analytic_key_rate("flip", eps1=e, eps2=e).key_rate for e in grid]
        monotone = all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))
        report("10 (flip surface symmetry and monotonicity)", symmetric < 1e-12 and monotone)


class TestCriterion11OracleEquivalence:
    def test_five_hundred_comparisons(self):
        rng = np.random.default_rng(1111)
        worst = 0.0
        for _ in range(500):
            num_parties = int(rng.integers(1, 4))
            indexing = qmath.PartyIndexing(num_parties)
            amps = rng.normal(size=indexing.total_dim) + 1j * rng.normal(size=indexing.total_dim)
            state = dense.StateVector(amps / np.linalg.norm(amps))
            locals_ = []
            lifted = np.eye(indexing.total_dim, dtype=complex)
            for party in range(1, num_parties + 1):
                raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                local = (raw + raw.conj().T) / 2
                locals_.append(local)
                lifted = lifted @ qmath.lift_matrix(local, party, indexing)
            via_lift = dense.expectation(state, dense.HermitianOperator((lifted + lifted.conj().T) / 2))
            worst = max(worst, abs(via_lift - dense.oracle_expectation(state, locals_)))
        report("11 (lifted vs tensor oracle, 500 draws)", worst < 1e-10, f"worst {worst:.2e}")


class TestCriterion12Determinism:
    def test_byte_identical_outputs(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        artifacts = []
        for tag, threads in (("r1", "1"), ("r2", "1"), ("r4", "4")):
            outdir = tmp_path / tag
            code = cli.main([
                "run", "--kind", "mermin", "--parties", "3", "--rounds", "10000",
                "--seed", "1212", "--threads", threads, "--outdir", str(outdir),
            ])
            assert code == cli.EXIT_OK
            blob = {}
            for name in ("run-transcript.jsonl", "run-report.json", "run-key-party1.txt",
                         "run-key-party2.txt", "run-key-party3.txt"):
                blob[name] = (outdir / name).read_bytes()
            cli.main(["sweep", "--model", "flip", "--grid", "9", "--outdir", str(outdir)])
            blob["sweep-flip-mermin.csv"] = (outdir / "sweep-flip-mermin.csv").read_bytes()
            artifacts.append(blob)
        ok = artifacts[0] == artifacts[1] == artifacts[2]
        report("12 (byte-identical transcript/report/CSV across reruns and threads)", ok)
