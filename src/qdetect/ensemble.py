"""Concrete specimen ensembles sampled from a joint outcome distribution.

Each record stands for one specimen that actually underwent a joint
measurement of a commuting family; its outcomes are drawn i.i.d. from the
clamped atom distribution. Because zero-probability atoms are exactly zero
after clamping, statements like "a detecting pair never disagrees" hold
exactly in every sample, not just statistically.

An ensemble is stored as one column: `index` holds the outcome code of each
record as a uint16 (a family has at most MAX_FAMILY = 12 members), the same
code that indexes the distribution's `probs`. Its outcome vector is row
`index[i]` of the derived `table`, `outcome_bits(k)`: the bits of the code,
first member most significant. Counts, the discordance audit and
certification all work from the per-code record counts and masks over the
table.

Sampling is counter-based: record i consumes the first draw of Philox
counter block i, so the ensemble depends only on (dist, n, seed). A uniform
u is mapped to its code by inversion of the cdf through a guide table (Chen
and Asau, AIIE Trans. 1974): u's bucket floor(u * 2^12) names its code
outright unless a cdf edge splits the bucket, and only records in split
buckets are binary-searched. The draw is vectorized over fixed-size chunks
of records, which bounds its memory; the worker count is accepted for
compatibility and never changes the ensemble or starts a thread.

The CSV writer formats a chunk of records into one preallocated byte
buffer: the id digits one decimal place at a time, then each record's
preformatted row tail ",b1,...,bk\r\n", gathered per code.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from math import isfinite, sqrt

import numpy as np

from .assignment import MAX_FAMILY, JointDistribution, outcome_bits
from .errors import PreconditionError, UnknownObservableError, ValidationError
from .reporting import Report

# Philox-4x64 emits 4 raw uint64 words per counter block; Generator.random
# consumes one word per double. Using only the first word of each block keys
# every record to its own block index.
_WORDS_PER_BLOCK = 4

# An existential "some record lands in this atom" is only asserted when the
# expected count is at least this large; below it absence is plausible noise.
MIN_EXPECTED_COUNT = 10.0

# Largest ensemble sample_ensemble draws: ten times the largest run the
# roadmap names (10^6 records), and an 80 MB index of outcome codes.
MAX_SAMPLES = 10**7

# Records per call of _uniforms: bounds the transient draw at 2 MB at any n.
_DRAW_CHUNK = 1 << 16

# Records formatted per write in Ensemble.to_csv; bounds the bytes held at once.
_CSV_CHUNK = 1 << 16

# Buckets of the draw's guide table. A power of two makes a uniform's bucket
# floor(u * _GUIDE_BUCKETS) exact.
_GUIDE_BUCKETS = 1 << 12

# Guide entry of a bucket that a cdf edge splits. No code takes this value:
# codes lie below 2^MAX_FAMILY.
_SPLIT = np.iinfo(np.uint16).max


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class Ensemble:
    """An ordered collection of specimen records for one measured family.

    Record i has id i and the outcome code `index[i]`, a uint16 code in
    [0, 2^k) for a family of k <= MAX_FAMILY members.
    """

    rho_name: str
    seed: int
    family: tuple[str, ...]
    index: np.ndarray

    def __post_init__(self) -> None:
        index = np.asarray(self.index)
        if len(self.family) > MAX_FAMILY:
            raise ValidationError(
                f"ensemble family has {len(self.family)} members; the limit is {MAX_FAMILY}"
            )
        if index.ndim != 1 or not np.issubdtype(index.dtype, np.integer):
            raise ValidationError("ensemble index must be a 1-D integer array")
        if index.size and not (0 <= index.min() and index.max() < 2 ** len(self.family)):
            raise ValidationError("ensemble index holds a code outside [0, 2^k)")
        object.__setattr__(self, "index", _read_only(index.astype(np.uint16, copy=False)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ensemble):
            return NotImplemented
        return (
            self.rho_name == other.rho_name
            and self.seed == other.seed
            and self.family == other.family
            and np.array_equal(self.index, other.index)
        )

    @property
    def n(self) -> int:
        return int(self.index.size)

    @cached_property
    def table(self) -> np.ndarray:
        """The 0/1 outcome vector of each code, one uint8 row per code."""
        return _read_only(outcome_bits(len(self.family)))

    @cached_property
    def atom_counts(self) -> np.ndarray:
        """Number of records with each outcome code."""
        # bincount widens its input to intp; chunks keep that copy small.
        counts = np.zeros(2 ** len(self.family), dtype=np.intp)
        for start in range(0, self.n, _DRAW_CHUNK):
            counts += np.bincount(
                self.index[start : start + _DRAW_CHUNK], minlength=counts.size
            )
        return _read_only(counts)

    def _column(self, name: str) -> np.ndarray:
        if name not in self.family:
            raise UnknownObservableError(
                f"{name!r} is not in the measured family {self.family}"
            )
        return self.table[:, self.family.index(name)]

    def to_csv(self, path) -> None:
        """Write the header and one `id,b1,...,bk` row per record, CRLF-ended.

        The bytes are those csv.writer writes for the same rows.
        """
        # The header goes through csv.writer, which quotes a family name when
        # it must. A record row is its id's digits followed by its code's
        # fixed-width tail ",b1,...,bk\r\n"; rows whose ids have equal digit
        # counts form a rectangular byte array, built in one buffer.
        header = io.StringIO()
        csv.writer(header).writerow(["id", *self.family])
        k = len(self.family)
        tail = 2 * k + 2
        tails = np.empty((len(self.table), tail), dtype=np.uint8)
        tails[:, 0 : 2 * k : 2] = ord(",")
        tails[:, 1 : 2 * k : 2] = self.table + ord("0")
        tails[:, 2 * k :] = (ord("\r"), ord("\n"))
        # One opaque record per code, so a gather moves a whole tail at once.
        tail_records = tails.view(f"V{tail}")[:, 0]
        widest = len(str(max(self.n - 1, 0)))
        buffer = np.empty(min(self.n, _CSV_CHUNK) * (widest + tail), dtype=np.uint8)
        with open(path, "wb") as handle:
            handle.write(header.getvalue().encode("utf-8"))
            start = 0
            while start < self.n:
                width = len(str(start))
                stop = min(self.n, start + _CSV_CHUNK, 10**width)
                rows = buffer[: (stop - start) * (width + tail)].reshape(-1, width + tail)
                # Ids stay below MAX_SAMPLES < 2^32, so uint32 holds them and
                # each place is one division by a scalar.
                ids = np.arange(start, stop, dtype=np.uint32)
                for place in range(width - 1, -1, -1):
                    quotient = ids // 10
                    rows[:, place] = ids - quotient * 10 + ord("0")
                    ids = quotient
                rows[:, width:].view(tail_records.dtype)[:, 0] = tail_records[
                    self.index[start:stop]
                ]
                handle.write(rows)
                start = stop


def _uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles for record indices [start, start + count)."""
    bits = np.random.Philox(key=seed)
    bits.advance(start)
    return np.random.Generator(bits).random(_WORDS_PER_BLOCK * count)[
        ::_WORDS_PER_BLOCK
    ]


def sample_ensemble(
    dist: JointDistribution,
    n: int,
    seed: int,
    *,
    rho_name: str = "rho",
    workers: int = 1,
) -> Ensemble:
    """Draw n i.i.d. joint outcomes from the atom distribution.

    The result depends only on (dist, n, seed). `workers` must be at least 1
    and is otherwise ignored: the draw is vectorized in one thread, so the
    worker count never changes the ensemble and starts no threads.
    """
    check_request(n, seed, workers)
    seed = int(seed)

    # JointDistribution holds atoms summing to 1 within 1e-9.
    cum = np.cumsum(dist.probs)
    # Close the last bin exactly so u ~ U[0,1) can never fall off the end.
    cum[-1] = 1.0
    guide = _guide_table(cum)
    index = np.empty(n, dtype=np.uint16)
    for start in range(0, n, _DRAW_CHUNK):
        stop = min(n, start + _DRAW_CHUNK)
        u = _uniforms(seed, start, stop - start)
        codes = index[start:stop]
        np.take(guide, (u * _GUIDE_BUCKETS).astype(np.intp), out=codes)
        split = np.flatnonzero(codes == _SPLIT)
        codes[split] = np.searchsorted(cum, u[split], side="right")
    return Ensemble(rho_name=rho_name, seed=seed, family=dist.names, index=index)


def _guide_table(cum: np.ndarray) -> np.ndarray:
    """The code of each bucket [b, b + 1) / _GUIDE_BUCKETS, or _SPLIT.

    A uniform u draws code searchsorted(cum, u, side='right'): u strictly
    below a bin edge picks that bin, so bins of width zero (clamped atoms)
    are unreachable. That code is nondecreasing in u, so every u in a bucket
    draws the code of the bucket's left end when no edge of cum lies in
    (left end, right end]; the bucket is split otherwise.
    """
    ends = np.searchsorted(
        cum, np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS, side="right"
    )
    return np.where(ends[:-1] == ends[1:], ends[:-1], _SPLIT).astype(np.uint16)


def check_request(n: int, seed: int, workers: int) -> None:
    """Raise PreconditionError unless sample_ensemble may draw n records.

    It needs 1 <= n <= MAX_SAMPLES, workers >= 1 and a seed in [0, 2^64).
    No distribution is read, so a request can be refused before any work.
    """
    if not 1 <= n <= MAX_SAMPLES:
        raise PreconditionError(
            f"ensemble size must be at least 1 and at most {MAX_SAMPLES}, got {n}"
        )
    if workers < 1:
        raise PreconditionError(f"worker count must be at least 1, got {workers}")
    if not (0 <= int(seed) < 2**64):
        raise PreconditionError(f"seed must be a 64-bit unsigned integer, got {seed}")


def check_z(z: float) -> None:
    """Raise PreconditionError unless the band width z is finite and above 0."""
    if not (isfinite(z) and z > 0):
        raise PreconditionError(f"z must be a finite number above 0, got {z!r}")


def check_support_statements(
    ens: Ensemble, dist: JointDistribution, z: float = 3.0
) -> Report:
    """Certify the ensemble against the distribution it was drawn from.

    Exact checks: zero-probability atoms are unpopulated. That covers
    mutually exclusive pairs: a pair whose outcome-1 joint mass is zero has
    every atom with both bits set exactly zero (clamped atoms are >= 0, so
    their sum cannot cancel), and each such atom has its own atom-empty
    line. That outcomes partition each extension needs no check: an
    Ensemble holds a 0/1 value per record and member by construction.
    Statistical checks: every sufficiently expected atom is populated, and
    all atom frequencies sit within z standard deviations of their
    probabilities.
    """
    check_z(z)
    if ens.family != dist.names:
        raise ValidationError(
            f"ensemble family {ens.family} does not match distribution "
            f"family {dist.names}"
        )
    report = Report(
        command="support",
        inputs={"n": ens.n, "seed": ens.seed, "z": float(z), "rho": ens.rho_name},
    )
    n = ens.n
    counts = ens.atom_counts
    k = len(ens.family)
    # Code i's label is the i-th k characters: its table row as "0"s and "1"s.
    labels = (ens.table + ord("0")).tobytes().decode("ascii")

    # tolist() hands out Python floats, whose repr the report prints.
    for code, (p, count) in enumerate(zip(dist.probs.tolist(), counts.tolist())):
        label = labels[code * k : code * k + k]
        if p == 0.0:
            report.add(
                name=f"atom-empty:{label}",
                passed=count == 0,
                residual=float(count),
                ref="support:zero-mass",
                detail="zero-probability outcome must never occur",
            )
            continue
        if n * p >= MIN_EXPECTED_COUNT:
            report.add(
                name=f"atom-populated:{label}",
                passed=count > 0,
                residual=float(count),
                ref="support:nonempty",
                detail=f"expected count {n * p:.1f}",
            )
        freq = count / n if n else 0.0
        sigma = sqrt(p * (1.0 - p) / n) if n else 0.0
        report.add(
            name=f"frequency:{label}",
            passed=abs(freq - p) <= z * sigma,
            residual=abs(freq - p),
            ref="support:frequency",
            detail=f"p={p!r} band={z * sigma:.3e}",
        )

    return report


def detection_frequency_audit(
    t_name: str, e_name: str, ens: Ensemble
) -> tuple[int, int]:
    """Count records where the two outcomes disagree vs. agree.

    For a genuine detection pair the discordant count is exactly zero: the
    sampler never draws from the clamped zero-mass atoms.
    """
    disagree = ens._column(t_name) != ens._column(e_name)
    discordant = int(ens.atom_counts[disagree].sum())
    return discordant, ens.n - discordant
