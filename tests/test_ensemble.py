import csv
import io
import threading
from dataclasses import FrozenInstanceError
from itertools import product as cartesian

import numpy as np
import pytest

from qdetect import (
    Ensemble,
    JointDistribution,
    PreconditionError,
    UnknownObservableError,
    ValidationError,
    check_support_statements,
    complement,
    detection_frequency_audit,
    joint_distribution,
    sample_ensemble,
)
from qdetect import ensemble as ensemble_module
from qdetect.assignment import MAX_FAMILY, outcome_bits
from qdetect.ensemble import _SPLIT, _guide_table, _uniforms
from qdetect.numerics import outer
from qdetect.observables import DensityOperator

from support import (
    random_commuting_family,
    reference_audit,
    reference_count_atom,
    reference_count_outcome,
    reference_csv_bytes,
    reference_records,
)


@pytest.fixture(scope="module")
def pair_dist(ghsz):
    return joint_distribution([ghsz.observable("E_alpha"), ghsz.observable("F")], ghsz.state)


@pytest.fixture(scope="module")
def detect_dist(ghsz):
    return joint_distribution([ghsz.observable("M"), ghsz.observable("G_alpha")], ghsz.state)


def test_uniforms_partition_is_seamless():
    whole = _uniforms(seed=123, start=0, count=100)
    parts = np.concatenate(
        [_uniforms(123, 0, 37), _uniforms(123, 37, 40), _uniforms(123, 77, 23)]
    )
    np.testing.assert_array_equal(whole, parts)
    assert not np.array_equal(whole, _uniforms(seed=124, start=0, count=100))


def test_uniforms_block_alignment():
    # Record k must consume the first word of counter block k: skipping ahead
    # by advance(k) and reading every fourth double from the start agree.
    seed, k = 99, 17
    gen = np.random.Generator(np.random.Philox(key=seed))
    stream = gen.random(4 * (k + 1))[::4]
    assert _uniforms(seed, k, 1)[0] == stream[k]


def test_sample_ensemble_deterministic(pair_dist):
    a = sample_ensemble(pair_dist, 500, seed=7)
    b = sample_ensemble(pair_dist, 500, seed=7)
    assert a == b
    assert a.n == 500
    assert a.family == ("E_alpha", "F")
    c = sample_ensemble(pair_dist, 500, seed=8)
    assert a != c


def test_worker_count_never_changes_records(pair_dist):
    base = sample_ensemble(pair_dist, 997, seed=3, workers=1)
    for workers in (2, 3, 8):
        again = sample_ensemble(pair_dist, 997, seed=3, workers=workers)
        np.testing.assert_array_equal(again.index, base.index)
        np.testing.assert_array_equal(again.table, base.table)


def test_sample_matches_manual_inverse_cdf(pair_dist):
    n, seed = 300, 11
    ens = sample_ensemble(pair_dist, n, seed=seed)
    u = np.random.Generator(np.random.Philox(key=seed)).random(4 * n)[::4]
    keys = list(pair_dist.atoms)
    cum = np.cumsum([pair_dist.atoms[k] for k in keys])
    cum[-1] = 1.0
    expect = [keys[i] for i in np.searchsorted(cum, u, side="right")]
    assert ens.index.shape == (n,)
    assert list(map(tuple, ens.table[ens.index].tolist())) == expect


def test_zero_mass_atoms_never_sampled(detect_dist):
    ens = sample_ensemble(detect_dist, 20000, seed=0)
    assert ens.atom_counts[0b10] == 0
    assert ens.atom_counts[0b01] == 0
    assert ens.atom_counts[0b11] + ens.atom_counts[0b00] == 20000
    discordant, concordant = detection_frequency_audit("M", "G_alpha", ens)
    assert discordant == 0
    assert concordant == 20000


def test_atom_counts_and_unknown_audit_name(pair_dist):
    ens = sample_ensemble(pair_dist, 64, seed=5)
    f_holds = ens.table[:, ens.family.index("F")] == 1
    assert ens.atom_counts[~f_holds].sum() + ens.atom_counts[f_holds].sum() == 64
    with pytest.raises(UnknownObservableError):
        detection_frequency_audit("M", "F", ens)


def test_sample_validations(pair_dist):
    with pytest.raises(PreconditionError):
        sample_ensemble(pair_dist, 0, seed=0)
    with pytest.raises(PreconditionError):
        sample_ensemble(pair_dist, 10, seed=0, workers=0)
    with pytest.raises(PreconditionError):
        sample_ensemble(pair_dist, 10, seed=-1)
    with pytest.raises(PreconditionError):
        sample_ensemble(pair_dist, 10, seed=2**64)


def test_sample_cap_is_checked_before_any_draw(pair_dist, monkeypatch):
    class Drew(Exception):
        pass

    def refuse(*args):
        raise Drew

    monkeypatch.setattr(ensemble_module, "_uniforms", refuse)
    with pytest.raises(PreconditionError, match="at most"):
        sample_ensemble(pair_dist, ensemble_module.MAX_SAMPLES + 1, seed=0)
    # The cap itself is admitted: the draw is reached (and refused here).
    with pytest.raises(Drew):
        sample_ensemble(pair_dist, ensemble_module.MAX_SAMPLES, seed=0)


def test_chunked_draw_matches_one_draw(pair_dist, monkeypatch):
    # Record i keeps the first draw of counter block i however the records
    # are chunked: n on a chunk boundary, one record past it, and under it.
    draw = ensemble_module._uniforms
    calls = []

    def counting(seed, start, count):
        calls.append(count)
        return draw(seed, start, count)

    monkeypatch.setattr(ensemble_module, "_uniforms", counting)
    for chunk in (7, 64):
        for n in (3 * chunk, 3 * chunk + 1, chunk - 1):
            monkeypatch.setattr(ensemble_module, "_DRAW_CHUNK", n)
            whole = sample_ensemble(pair_dist, n, seed=47)
            monkeypatch.setattr(ensemble_module, "_DRAW_CHUNK", chunk)
            calls.clear()
            assert sample_ensemble(pair_dist, n, seed=47) == whole
            assert calls == [chunk] * (n // chunk) + ([n % chunk] if n % chunk else [])
            chunks = [draw(47, i, min(chunk, n - i)) for i in range(0, n, chunk)]
            assert np.array_equal(np.concatenate(chunks), draw(47, 0, n))


def _crafted_uniforms() -> np.ndarray:
    # Every bucket edge b / 2^12, the doubles either side of it, the ends of
    # [0, 1) and a spread of ordinary draws.
    edges = np.arange(1 << 12) / (1 << 12)
    return np.concatenate(
        [
            edges,
            np.nextafter(edges[1:], 0.0),
            np.nextafter(edges, 1.0),
            [0.0, np.nextafter(1.0, 0.0)],
            np.random.default_rng(8).random(5000),
        ]
    )


@pytest.mark.parametrize(
    "probs",
    [
        # cdf edges at exactly k / 2^12, with zero-width atoms on them and
        # on the first and last bucket boundaries.
        np.array([0, 1, 0, 3, 0, 2, 4086, 0, 0, 1, 0, 1, 0, 1, 1, 0]) / 4096,
        # One atom carries all the mass.
        np.array([0.0, 0.0, 1.0, 0.0]),
        np.array([1.0, 0.0]),
        # 2^12 equal atoms: every bucket holds an edge.
        np.full(1 << 12, 1.0 / (1 << 12)),
        # Edges off the bucket grid.
        np.array([0.1, 0.0, 0.25, 0.0, 0.0, 1e-9, 0.3, 0.35 - 1e-9]),
    ],
    ids=["grid-edges", "one-atom", "one-atom-first", "equal-4096", "off-grid"],
)
def test_guide_table_draw_matches_binary_search(probs, monkeypatch):
    k = len(probs).bit_length() - 1
    dist = JointDistribution(tuple(f"m{i}" for i in range(k)), probs, 1.0)
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    u = _crafted_uniforms()
    monkeypatch.setattr(
        ensemble_module, "_uniforms", lambda seed, start, count: u[start : start + count]
    )
    monkeypatch.setattr(ensemble_module, "_DRAW_CHUNK", 1000)
    ens = sample_ensemble(dist, u.size, seed=0)
    np.testing.assert_array_equal(ens.index, np.searchsorted(cum, u, side="right"))
    assert ens.index.dtype == np.uint16
    assert not np.any(probs[ens.index] == 0.0)
    guide = _guide_table(cum)
    if len(probs) == 1 << 12:
        assert np.all(guide == _SPLIT)
    else:
        assert np.any(guide == _SPLIT) and np.any(guide != _SPLIT)


@pytest.mark.parametrize(
    "probs",
    [
        [np.nan, 0.5, 0.25, 0.25],
        [0.5, -0.25, 0.5, 0.25],
        [0.5, np.inf, 0.25, 0.25],
        [0.5, 0.25, 0.25, 0.25],
        [0.5, 0.5],
        [[0.5, 0.5], [0.0, 0.0]],
        [0.5j, 0.5, 0.0, 0.0],
    ],
    ids=["nan", "negative", "inf", "sum", "length", "2-d", "complex"],
)
def test_joint_distribution_refuses_bad_probs(probs):
    with pytest.raises(ValidationError):
        JointDistribution(("a", "b"), np.array(probs), 1.0)


def test_joint_distribution_refuses_more_than_max_family_names():
    # No distribution of 13 names exists, so none can be sampled before
    # the Ensemble constructor refuses its family.
    n = MAX_FAMILY + 1
    names = tuple(f"m{i}" for i in range(n))
    with pytest.raises(ValidationError, match="limit is 12"):
        JointDistribution(names, np.full(2**n, 2.0**-n), 1.0)


def test_joint_distribution_keeps_a_read_only_copy():
    probs = np.array([0.5, 0.0, 0.25, 0.25])
    dist = JointDistribution(("a", "b"), probs, 1.0)
    probs[0] = 0.0
    assert dist.probs.tolist() == [0.5, 0.0, 0.25, 0.25]
    assert dist.n == 2
    with pytest.raises(ValueError):
        dist.probs[0] = 0.0


def test_to_csv_ids_crossing_powers_of_ten(tmp_path, monkeypatch):
    # Ids cross 9 -> 10, ..., 999 999 -> 1 000 000; a 997-record chunk ends
    # both inside runs of equally long ids and at their ends.
    monkeypatch.setattr(ensemble_module, "_CSV_CHUNK", 997)
    rng = np.random.default_rng(31)
    for family, n in ((("x", "y z", "w"), 100_002), (("a,b",), 1_000_002)):
        ens = Ensemble("rho", 0, family, rng.integers(0, 2 ** len(family), n))
        path = tmp_path / f"{n}.csv"
        ens.to_csv(path)
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(["id", *family])
        writer.writerows(zip(range(n), *ens.table[ens.index].T.tolist()))
        assert path.read_bytes() == want.getvalue().encode("utf-8"), n


def test_to_csv_worker_invariant(pair_dist, tmp_path):
    one = tmp_path / "one.csv"
    four = tmp_path / "four.csv"
    sample_ensemble(pair_dist, 101, seed=2, workers=1).to_csv(one)
    sample_ensemble(pair_dist, 101, seed=2, workers=4).to_csv(four)
    assert one.read_bytes() == four.read_bytes()
    lines = one.read_text().splitlines()
    assert lines[0] == "id,E_alpha,F"
    assert len(lines) == 102
    head = lines[1].split(",")
    assert head[0] == "0" and set(head[1:]) <= {"0", "1"}


def test_support_statements_pass(pair_dist):
    ens = sample_ensemble(pair_dist, 5000, seed=13)
    report = check_support_statements(ens, pair_dist)
    assert report.exit_code == 0
    names = [c.name for c in report.checks]
    # Every table entry is 0 or 1 by construction: no partition checks.
    assert not any(n.startswith("partition:") for n in names)
    assert "atom-populated:11" in names
    assert "frequency:00" in names
    # All four atoms carry mass 1/4, so no emptiness or exclusivity checks.
    assert not any(n.startswith("atom-empty") for n in names)
    assert not any(n.startswith("exclusive") for n in names)


def test_support_statements_detecting_pair(detect_dist):
    ens = sample_ensemble(detect_dist, 5000, seed=17)
    report = check_support_statements(ens, detect_dist)
    assert report.exit_code == 0
    by_name = {c.name: c for c in report.checks}
    assert by_name["atom-empty:10"].residual == 0.0
    assert by_name["atom-empty:01"].residual == 0.0


def _assert_exclusive_pairs_have_empty_atoms(dist, report):
    """Each code with both bits of a zero-mass pair set has an atom-empty line.

    Returns the number of zero-mass pairs seen.
    """
    k = dist.n
    table = outcome_bits(k)
    lines = {c.name for c in report.checks if c.name.startswith("atom-empty:")}
    pairs = 0
    for i in range(k):
        for j in range(i + 1, k):
            both = (table[:, i] == 1) & (table[:, j] == 1)
            if dist.probs[both].sum() != 0.0:
                continue
            pairs += 1
            for row in table[both].tolist():
                assert "atom-empty:" + "".join(map(str, row)) in lines
    return pairs


def test_support_statements_exclusive_pair(ghsz):
    f = ghsz.observable("F")
    dist = joint_distribution([f, complement(f)], ghsz.state)
    ens = sample_ensemble(dist, 2000, seed=19)
    report = check_support_statements(ens, dist)
    assert report.exit_code == 0
    by_name = {c.name: c for c in report.checks}
    # F and F' never both hold: the atom-empty:11 line says so.
    assert not any(name.startswith("exclusive") for name in by_name)
    assert _assert_exclusive_pairs_have_empty_atoms(dist, report) == 1
    assert by_name["atom-empty:11"].passed
    assert by_name["atom-empty:00"].passed


def test_support_statements_family_mismatch(pair_dist, detect_dist):
    ens = sample_ensemble(pair_dist, 50, seed=23)
    with pytest.raises(ValidationError):
        check_support_statements(ens, detect_dist)


def test_support_statements_flag_biased_distribution(ghsz, pair_dist):
    # Negative control: audit a fair sample against the distribution of a
    # tilted state. The frequency bands must catch the 0.25 vs 0.40 gap.
    raw = np.zeros(16, dtype=np.complex128)
    raw[0b0000] = np.sqrt(0.9)
    raw[0b1000] = np.sqrt(0.1)
    tilted = DensityOperator(outer(raw))
    biased = joint_distribution(
        [ghsz.observable("E_alpha"), ghsz.observable("F")], tilted
    )
    ens = sample_ensemble(pair_dist, 5000, seed=29)
    report = check_support_statements(ens, biased)
    assert report.exit_code == 1
    failed = [c.name for c in report.checks if not c.passed]
    assert any(n.startswith("frequency") for n in failed)


def test_small_samples_skip_existence_checks(pair_dist):
    # n*p = 5 per atom: too small to insist the atom shows up.
    ens = sample_ensemble(pair_dist, 20, seed=31)
    report = check_support_statements(ens, pair_dist)
    assert not any(c.name.startswith("atom-populated") for c in report.checks)
    assert any(c.name.startswith("frequency") for c in report.checks)


def test_singleton_family(ghsz):
    dist = joint_distribution([ghsz.observable("E_alpha")], ghsz.state)
    ens = sample_ensemble(dist, 400, seed=37)
    assert ens.family == ("E_alpha",)
    assert ens.atom_counts[0b1] == np.count_nonzero(ens.index == 1)
    assert check_support_statements(ens, dist).exit_code == 0


def test_many_workers_start_no_threads(pair_dist, monkeypatch):
    base = sample_ensemble(pair_dist, 1000, seed=41, workers=1)

    def refuse(self):
        raise AssertionError("sample_ensemble started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for workers in (2, 10**6):
        assert sample_ensemble(pair_dist, 1000, seed=41, workers=workers) == base


def test_ensemble_columns_are_read_only(pair_dist):
    ens = sample_ensemble(pair_dist, 10, seed=43)
    with pytest.raises(ValueError):
        ens.index[0] = 0
    with pytest.raises(ValueError):
        ens.table[0, 0] = 1
    with pytest.raises(FrozenInstanceError):
        ens.index = ens.index
    assert ens.table.shape == (4, 2)
    assert [tuple(row) for row in ens.table] == list(pair_dist.atoms)


def test_ensemble_rejects_malformed_columns():
    # The index holds outcome codes; the table derives from the family size.
    ens = Ensemble("rho", 0, ("a", "b"), np.array([0, 3, 3]))
    assert ens.table.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert ens.atom_counts.tolist() == [1, 0, 0, 2]
    with pytest.raises(ValidationError):
        Ensemble("rho", 0, ("a", "b"), np.array([0, 4]))
    with pytest.raises(ValidationError):
        Ensemble("rho", 0, ("a",), np.array([2]))
    with pytest.raises(ValidationError):
        Ensemble("rho", 0, ("a", "b"), np.array([-1]))
    with pytest.raises(ValidationError):
        Ensemble("rho", 0, ("a", "b"), np.array([0.0]))
    with pytest.raises(ValidationError):
        Ensemble("rho", 0, ("a", "b"), np.array([[0]]))
    # Codes are stored as uint16, which holds every code of a family up to
    # MAX_FAMILY members.
    big = tuple(f"m{i}" for i in range(MAX_FAMILY))
    assert Ensemble("rho", 0, big, np.array([2**MAX_FAMILY - 1])).index.dtype == np.uint16
    with pytest.raises(ValidationError):
        Ensemble("rho", 0, (*big, "extra"), np.array([0]))


def test_columnar_ensemble_matches_per_record_reference(tmp_path, monkeypatch):
    # A 7-record CSV chunk makes chunks end both inside and at the ends of
    # each run of equally long ids.
    monkeypatch.setattr(ensemble_module, "_CSV_CHUNK", 7)
    rng = np.random.default_rng(2024)
    zero_mass_seen = False
    cases = [(k, n) for k in range(1, 6) for n in (1, 2, 333)]
    cases.append((3, 1234))
    for case, (k, n) in enumerate(cases):
        family, rho = random_commuting_family(rng, dim=8, k=k, support=3)
        dist = joint_distribution(family, rho)
        zero_mass_seen |= any(p == 0.0 for p in dist.atoms.values())
        seed = int(rng.integers(0, 2**63))
        ens = sample_ensemble(dist, n, seed=seed)
        ref = reference_records(dist, n, seed)
        assert ens.n == n
        assert [i for i, _ in ref] == list(range(n))
        want = [[outcomes[name] for name in dist.names] for _, outcomes in ref]
        np.testing.assert_array_equal(ens.table[ens.index], want, f"case {case}")

        path = tmp_path / f"case{case}.csv"
        ens.to_csv(path)
        assert path.read_bytes() == reference_csv_bytes(dist.names, ref), f"case {case}"

        for i, name in enumerate(dist.names):
            for bit in (0, 1):
                assert ens.atom_counts[ens.table[:, i] == bit].sum() == (
                    reference_count_outcome(ref, name, bit)
                )
        # product() runs through the outcome vectors in code order.
        for code, omega in enumerate(cartesian((0, 1), repeat=k)):
            assert ens.atom_counts[code] == reference_count_atom(
                ref, dist.names, omega
            )
        for t_name in dist.names:
            for e_name in dist.names:
                assert detection_frequency_audit(
                    t_name, e_name, ens
                ) == reference_audit(ref, t_name, e_name)
    assert zero_mass_seen


def test_zero_mass_lines_cover_exclusive_pairs():
    rng = np.random.default_rng(77)
    exclusive = joint = 0
    for _ in range(12):
        k = int(rng.integers(4, 7))
        family, rho = random_commuting_family(rng, dim=12, k=k, support=3)
        dist = joint_distribution(family, rho)
        report = check_support_statements(sample_ensemble(dist, 200, seed=k), dist)
        seen = _assert_exclusive_pairs_have_empty_atoms(dist, report)
        exclusive += seen
        joint += k * (k - 1) // 2 - seen
    # The sweep must meet both kinds of pair.
    assert exclusive > 0 and joint > 0


def test_co_occurring_exclusive_pair_fails_its_atom_line(ghsz):
    # One record with both F and F' set: the zero-mass line of code 11 fails.
    f = ghsz.observable("F")
    dist = joint_distribution([f, complement(f)], ghsz.state)
    ens = Ensemble("rho", 0, dist.names, np.array([0b01, 0b10, 0b11, 0b10]))
    report = check_support_statements(ens, dist)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["atom-empty:11"].passed
    assert by_name["atom-empty:11"].residual == 1.0
    assert by_name["atom-empty:00"].passed
