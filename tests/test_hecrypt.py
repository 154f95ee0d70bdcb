"""Masking-protocol tests: keygen, encrypt/decrypt, the homomorphism law,
and what the server is allowed to see."""
import json
import math

import numpy as np
import pytest

from conftest import random_symmetric_pd, random_unit_vector
from qhesolve import fixtures, hhl
from qhesolve.hecrypt import (MaskKey, MaskingError, decrypt, encrypt, keygen,
                              solve_encrypted)
from qhesolve.hhl import LinearSystem, SolverConfig, classical_solve

SQ2 = 1 / math.sqrt(2)


# ---------------------------------------------------------------------------
# key generation
# ---------------------------------------------------------------------------

def test_keygen_deterministic():
    assert keygen(2, seed=99) == keygen(2, seed=99)


def test_keygen_components_binary():
    for seed in range(20):
        key = keygen(4, seed=seed)
        assert all(bit in (0, 1) for bit in key.a)


def test_keygen_rejects_empty():
    with pytest.raises(MaskingError):
        keygen(0, seed=1)


def test_fixture_key_accepted():
    assert MaskKey((1, 0)).vector().tolist() == [1.0, 0.0]
    with pytest.raises(MaskingError):
        MaskKey((2, 0))


# ---------------------------------------------------------------------------
# encrypt / decrypt
# ---------------------------------------------------------------------------

def test_encrypt_first_fixture_gives_unit_masked_vector():
    masked = encrypt(fixtures.eq7(), MaskKey((1, 0)))
    assert np.allclose(masked.b, [SQ2, SQ2], atol=1e-12)
    assert np.linalg.norm(masked.b) == pytest.approx(1.0, abs=1e-12)


def test_encrypt_second_fixture():
    masked = encrypt(fixtures.eq8(), MaskKey((1, 0)))
    assert np.allclose(masked.b, [SQ2, -SQ2], atol=1e-12)


def test_encrypt_identity_mask():
    system = fixtures.eq7()
    masked = encrypt(system, MaskKey((0, 0)))
    assert np.allclose(masked.b, system.b, atol=1e-15)


def test_encrypt_leaves_matrix_bit_identical():
    system = fixtures.eq7()
    masked = encrypt(system, MaskKey((1, 1)))
    assert masked.a.tobytes() == system.a.tobytes()


def test_encrypt_rejects_vanishing_mask():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    system = LinearSystem(a, np.array([1.0, 0.0]))
    with pytest.raises(MaskingError, match="resample"):
        encrypt(system, MaskKey((1, 0)))


def test_decrypt_examples():
    key = MaskKey((1, 0))
    assert np.allclose(decrypt(np.array([SQ2, SQ2]), key), [1 + SQ2, SQ2])
    assert np.allclose(decrypt(np.array([SQ2, -SQ2]), key), [1 + SQ2, -SQ2])
    vec = np.array([0.3, -0.8])
    assert np.allclose(decrypt(vec, MaskKey((0, 0))), vec)


def test_decrypt_inverts_subtraction():
    rng = np.random.default_rng(8)
    for _ in range(100):
        key = keygen(2, seed=int(rng.integers(1 << 31)))
        vec = rng.normal(size=2)
        assert np.allclose(decrypt(vec - key.vector(), key), vec, atol=1e-12)


# ---------------------------------------------------------------------------
# homomorphism
# ---------------------------------------------------------------------------

def test_homomorphism_classical_backend():
    rng = np.random.default_rng(515)
    for _ in range(1000):
        system = LinearSystem(random_symmetric_pd(rng),
                              rng.normal(size=2) * rng.uniform(0.5, 2.0))
        key = keygen(2, seed=int(rng.integers(1 << 31)))
        try:
            masked = encrypt(system, key)
        except MaskingError:
            continue
        inner = classical_solve(masked)
        got = decrypt(inner, key)
        assert np.allclose(got, classical_solve(system), atol=1e-9)


def test_homomorphism_quantum_backend_sample():
    # the full 1000-pair quantum run lives in the acceptance suite
    rng = np.random.default_rng(616)
    for _ in range(25):
        system = LinearSystem(random_symmetric_pd(rng), random_unit_vector(rng))
        key = keygen(2, seed=int(rng.integers(1 << 31)))
        try:
            masked = encrypt(system, key)
        except MaskingError:
            continue
        report = hhl.submit_solve(masked, SolverConfig(mode="exact"))
        got = decrypt(report.solution, key)
        want = classical_solve(system)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-6


# ---------------------------------------------------------------------------
# delegated solves
# ---------------------------------------------------------------------------

def test_solve_encrypted_first_fixture_analytic(server):
    report = solve_encrypted(fixtures.eq7(), MaskKey((1, 0)), server.address,
                             SolverConfig(mode="exact", execution="analytic"))
    assert np.allclose(report.solution, [1 + SQ2, SQ2], atol=1e-6)
    assert report.relative_error < 1e-6
    assert np.allclose(report.masked_solution, [SQ2, SQ2], atol=1e-6)


def test_solve_encrypted_second_fixture_analytic(server):
    report = solve_encrypted(fixtures.eq8(), MaskKey((1, 0)), server.address,
                             SolverConfig(mode="exact", execution="analytic"))
    assert np.allclose(report.solution, [1 + SQ2, -SQ2], atol=1e-6)
    assert report.relative_error < 1e-6


def test_solve_encrypted_sampled_replica_within_two_percent(server):
    config = SolverConfig(mode="replica",
                          theta_override=fixtures.REPLICA_THETA,
                          execution="sampled", shots=8192, seed=7,
                          star_center=hhl.EIGEN_QUBIT, rs_t_budget=7)
    report = solve_encrypted(fixtures.eq7(), MaskKey((1, 0)), server.address,
                             config)
    assert report.relative_error < 0.02


def test_job_payload_never_carries_key_or_plaintext(server, request_log):
    system = fixtures.eq7()
    key = MaskKey((1, 0))
    solve_encrypted(system, key, server.address,
                    SolverConfig(mode="exact", execution="analytic"))
    replica = SolverConfig(mode="replica",
                           theta_override=fixtures.REPLICA_THETA,
                           execution="sampled", shots=256, seed=3,
                           star_center=hhl.EIGEN_QUBIT, rs_t_budget=7)
    solve_encrypted(system, key, server.address, replica)
    solve_encrypted(system, key, None, replica)  # in-process, no socket
    assert len(request_log) == 3
    allowed = {"id", "circuit", "mode", "shots", "seed", "postselect",
               "bases", "noise_p"}
    for raw in request_log:
        payload = json.loads(raw.decode("utf-8"))
        assert set(payload) <= allowed
        text = raw.decode("utf-8")
        # plaintext right-hand side components, at several print precisions
        for component in system.b:
            for digits in (4, 6, 9, 12):
                assert f"{component:.{digits}f}" not in text
        assert "key" not in text.lower()
        # the mask vector never appears as a JSON array
        assert "[1, 0]" not in text and "[1,0]" not in text


@pytest.mark.parametrize("config", [
    SolverConfig(mode="exact", execution="analytic"),
    SolverConfig(mode="replica", theta_override=fixtures.REPLICA_THETA,
                 execution="sampled", shots=256, seed=3,
                 star_center=hhl.EIGEN_QUBIT, rs_t_budget=7),
], ids=["exact-analytic", "replica-sampled"])
def test_server_view_does_not_depend_on_the_scale_of_b_prime(config, server,
                                                             request_log):
    # ||b'|| depends on the private b: the frame must not carry it
    masked = encrypt(fixtures.eq7(), MaskKey((1, 0)))
    for scale in (1.0, 2.0):
        hhl.submit_solve(LinearSystem(masked.a, scale * masked.b),
                         config, server.address)
    assert len(request_log) == 2
    assert request_log[0] == request_log[1]
