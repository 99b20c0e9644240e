"""Exact DP-RAM transcript likelihoods by chain factorization (Section 6).

The Section 6 proof machinery (Lemmas 6.2/6.3) shows the transcript
distribution factorizes along *chains* — the subsequences of queries that
touch the same block.  Within the chain of block ``B``:

* the stash indicator at the download phase of the chain's first query is
  a fresh ``Bernoulli(p)`` (the setup coin);
* each query's overwrite coin ``b_j ~ Bernoulli(p)`` determines both the
  overwrite index distribution (uniform if stashed, forced to ``q_j``
  otherwise) *and* the stash indicator at the chain's next query.

That is a two-state hidden Markov chain per block, so the exact probability
of any transcript ``T = ((d_1,o_1), ..., (d_l,o_l))`` is computed by a
forward pass per chain — for any ``n``, ``l`` and ``p``.  This gives the
experiments *exact* likelihood ratios between adjacent query sequences
(no Monte-Carlo noise in the ratio itself), from which empirical ε lower
estimates and the Lemma 6.4/6.5 per-factor checks follow.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from repro.crypto.rng import RandomSource

_NEG_INF = float("-inf")


def sample_transcript_pairs(
    queries: Sequence[int], n: int, p: float, rng: RandomSource
) -> tuple[tuple[int, int], ...]:
    """Sample the ``(d_j, o_j)`` transcript of Algorithm 3 on ``queries``.

    Simulates only the index dynamics (stash indicators and uniform
    draws), not the block contents — it is distribution-identical to
    running :class:`repro.core.dp_ram.DPRAM` and reading the pairs off
    its server's transcript
    (:meth:`~repro.storage.transcript.Transcript.dp_ram_pairs`), but
    orders of magnitude faster for audits.
    """
    _check(n, p, queries)
    in_stash: dict[int, bool] = {}
    pairs: list[tuple[int, int]] = []
    for query in queries:
        stashed = in_stash.get(query)
        if stashed is None:
            stashed = rng.random() < p  # the setup coin, deferred lazily
        download = rng.randbelow(n) if stashed else query
        restash = rng.random() < p
        overwrite = rng.randbelow(n) if restash else query
        in_stash[query] = restash
        pairs.append((download, overwrite))
    return tuple(pairs)


def transcript_log_likelihood(
    queries: Sequence[int],
    pairs: Sequence[tuple[int, int]],
    n: int,
    p: float,
) -> float:
    """Exact ``ln Pr[RAM(queries) = pairs]`` (``-inf`` if impossible).

    Runs the per-chain forward pass described in the module docstring.
    """
    _check(n, p, queries)
    if len(pairs) != len(queries):
        raise ValueError(
            f"{len(pairs)} transcript pairs for {len(queries)} queries"
        )
    chains: dict[int, list[int]] = {}
    for position, query in enumerate(queries):
        chains.setdefault(query, []).append(position)
    total = 0.0
    for query, positions in chains.items():
        chain_probability = _chain_probability(query, positions, pairs, n, p)
        if chain_probability <= 0.0:
            return _NEG_INF
        total += math.log(chain_probability)
    return total


def transcript_log_ratio(
    queries_a: Sequence[int],
    queries_b: Sequence[int],
    pairs: Sequence[tuple[int, int]],
    n: int,
    p: float,
) -> float:
    """``ln(Pr[RAM(A) = T] / Pr[RAM(B) = T])`` — exact, may be ±inf.

    The differential privacy definition bounds this by ``ε·d(A, B)`` for
    every transcript ``T`` possible under both; Lemma 3.6 guarantees any
    transcript possible under one sequence is possible under every other,
    so a finite value always exists for transcripts sampled from either.
    """
    log_a = transcript_log_likelihood(queries_a, pairs, n, p)
    log_b = transcript_log_likelihood(queries_b, pairs, n, p)
    if log_a == _NEG_INF and log_b == _NEG_INF:
        raise ValueError("transcript impossible under both sequences")
    if log_b == _NEG_INF:
        return math.inf
    if log_a == _NEG_INF:
        return -math.inf
    return log_a - log_b


def empirical_epsilon(
    queries_a: Sequence[int],
    queries_b: Sequence[int],
    n: int,
    p: float,
    rng: RandomSource,
    trials: int = 2000,
) -> float:
    """Largest exact log-ratio over transcripts sampled from both sides.

    A Monte-Carlo *lower* estimate of the true ε of the DP-RAM scheme for
    this adjacent pair: sampling explores transcripts, but each sampled
    transcript's ratio is exact.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    worst = 0.0
    for _ in range(trials):
        for source in (queries_a, queries_b):
            pairs = sample_transcript_pairs(source, n, p, rng)
            ratio = abs(transcript_log_ratio(queries_a, queries_b, pairs, n, p))
            if ratio > worst and ratio != math.inf:
                worst = ratio
    return worst


def worst_case_log_ratio_exact(
    queries_a: Sequence[int],
    queries_b: Sequence[int],
    n: int,
    p: float,
) -> float:
    """The *exact* worst-case ``|ln(Pr[A=T]/Pr[B=T])|`` over all transcripts.

    This turns the Lemma 6.6/6.7 argument into an algorithm.  Chains of
    blocks untouched by the differing position contribute ratio 1 and can
    be fixed to any canonical transcript; only positions on the chains of
    the two differing blocks matter.  Within those positions, both
    likelihoods depend on ``d_j``/``o_j`` only through the indicators
    "equals block a" / "equals block b" / "equals neither", so the supremum
    is attained on the finite set of *class patterns* — which this function
    enumerates exhaustively (at most ``9^m`` patterns for ``m`` affected
    positions, and Lemma 6.7 keeps ``m`` tiny for adjacent sequences).

    Requires ``n >= 3`` (a "neither" representative must exist) and equal
    lengths.  The result is the exact per-pair ε of the DP-RAM scheme.
    """
    if len(queries_a) != len(queries_b):
        raise ValueError("sequences must have equal length")
    _check(n, p, queries_a)
    _check(n, p, queries_b)
    if n < 3:
        raise ValueError("exact worst-case search needs n >= 3")
    differing = [
        j for j, (qa, qb) in enumerate(zip(queries_a, queries_b))
        if qa != qb
    ]
    if not differing:
        return 0.0
    blocks = {queries_a[j] for j in differing} | {
        queries_b[j] for j in differing
    }
    affected = sorted(
        j
        for j, (qa, qb) in enumerate(zip(queries_a, queries_b))
        if qa in blocks or qb in blocks
    )
    if len(affected) > 6:
        raise ValueError(
            f"{len(affected)} affected positions would need "
            f"{(len(blocks) + 1) ** (2 * len(affected))} patterns; use "
            "empirical_epsilon for sequences that revisit the differing "
            "blocks this often"
        )
    # A representative value outside the differing blocks ("neither").
    neither = next(v for v in range(n) if v not in blocks)
    class_values = sorted(blocks) + [neither]

    base = [(q, q) for q in queries_a]  # canonical elsewhere (shared q_j)
    for j in differing:
        base[j] = (neither, neither)  # placeholder, overwritten below

    worst = 0.0
    for assignment in itertools.product(
        itertools.product(class_values, repeat=2), repeat=len(affected)
    ):
        pairs = list(base)
        for j, pair in zip(affected, assignment):
            pairs[j] = pair
        log_a = transcript_log_likelihood(queries_a, pairs, n, p)
        log_b = transcript_log_likelihood(queries_b, pairs, n, p)
        if log_a == _NEG_INF or log_b == _NEG_INF:
            continue  # cannot happen for 0<p<1, kept defensively
        ratio = abs(log_a - log_b)
        if ratio > worst:
            worst = ratio
    return worst


def dp_ram_analytic_epsilon(n: int, p: float) -> float:
    """The proof's conservative budget: ``3·ln(n³/p²)``.

    Lemma 6.4 bounds each download factor by ``n²/p``, Lemma 6.5 each
    overwrite factor by ``n/p``, and Lemma 6.7 shows at most three
    positions differ, so the transcript ratio is at most ``(n³/p²)³``.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    return 3.0 * math.log(n**3 / p**2)


def per_factor_bounds(n: int, p: float) -> tuple[float, float]:
    """The Lemma 6.4 and 6.5 per-factor ratio ceilings ``(n²/p, n/p)``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    return (n * n / p, n / p)


def download_factor(
    query: int, download: int, stash_prior: float, n: int, p: float
) -> float:
    """``Pr[d_j = download]`` given the stash prior of the queried block.

    The single-query factor of Lemma 6.3/6.4: with probability
    ``stash_prior`` the block sits in the stash (download uniform),
    otherwise the download is forced to ``query``.
    """
    if not 0.0 <= stash_prior <= 1.0:
        raise ValueError(f"stash prior must be in [0, 1], got {stash_prior}")
    probability = stash_prior / n
    if download == query:
        probability += 1.0 - stash_prior
    del p
    return probability


def overwrite_factor(query: int, overwrite: int, n: int, p: float) -> float:
    """``Pr[o_j = overwrite]`` — the Lemma 6.2/6.5 single-query factor."""
    probability = p / n
    if overwrite == query:
        probability += 1.0 - p
    return probability


# -- internals ---------------------------------------------------------------


def _chain_probability(
    query: int,
    positions: Sequence[int],
    pairs: Sequence[tuple[int, int]],
    n: int,
    p: float,
) -> float:
    """Forward pass over one block's chain.

    State: probability mass over "block currently stashed" carried jointly
    with the emissions so far (unnormalized forward measure).
    """
    mass_stashed = p
    mass_unstashed = 1.0 - p
    for position in positions:
        download, overwrite = pairs[position]
        # Download emission given the stash state.
        emit_stashed = 1.0 / n
        emit_unstashed = 1.0 if download == query else 0.0
        after_download = mass_stashed * emit_stashed + mass_unstashed * emit_unstashed
        if after_download == 0.0:
            return 0.0
        # Overwrite coin: independent of the stash state; its outcome both
        # emits o_j and becomes the next stash state.
        emit_if_restashed = p * (1.0 / n)
        emit_if_not = (1.0 - p) * (1.0 if overwrite == query else 0.0)
        mass_stashed = after_download * emit_if_restashed
        mass_unstashed = after_download * emit_if_not
    return mass_stashed + mass_unstashed


def _check(n: int, p: float, queries: Sequence[int]) -> None:
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    for query in queries:
        if not 0 <= query < n:
            raise ValueError(f"query {query} out of range for n={n}")
