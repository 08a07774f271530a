"""Micali–Vaikuntanathan-style baseline (paper §1, §3.5), t < n/2.

MV [18] achieves fixed-round BA for dishonest minority by iterating a
2-round graded consensus with the coin flip run in parallel to its second
round: 2 rounds per iteration, per-iteration failure ``1/2``, hence ``2κ``
rounds for error ``2^-κ`` — the yardstick the paper's ``3κ/2``-round
protocol beats.

We instantiate the 2-round GC with the ``r = 2`` case of the paper's own
``Prox_{2r-1}`` (Lemma 3), which is a 2-round crusader agreement under
threshold signatures — communication ``O(κ n²)``.  MV's original protocol
uses plain signatures and echoes certificates, costing a factor ``n`` more
communication (``O(κ n³)``); :func:`mv_pki_program` reproduces that
PKI-mode behaviour for the communication-complexity benchmark by having
every party forward the full ``n - t`` plain-signature certificate instead
of one combined threshold signature.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..network.messages import get_field
from ..network.party import Context
from ..proxcensus.base import ProxOutput
from ..proxcensus.linear_half import prox_linear_half_program
from .ba import FixedRoundBA
from .iteration import CoinFactory, Iteration

__all__ = [
    "MICALI_VAIKUNTANATHAN", "MV_PKI", "micali_vaikuntanathan_program",
    "mv_pki_program", "rounds_mv",
]


def _crusader_iteration(prox_factory, name: str):
    """Iteration ``index`` of an MV-style BA over the 2-round crusader
    agreement ``prox_factory``, the coin riding its second round."""
    return lambda index, kappa: Iteration(
        slots=3, prox_factory=prox_factory, prox_rounds=2,
        coin_index=(name, index), overlap_coin=True, subsession=f"{name}{index}",
    )


#: ``κ`` iterations of the threshold-signature 2-round ``Prox_3``.
MICALI_VAIKUNTANATHAN = FixedRoundBA(
    "micali_vaikuntanathan",
    2,
    _crusader_iteration(lambda c, b: prox_linear_half_program(c, b, rounds=2), "mv"),
    lambda kappa: kappa,
)


def rounds_mv(kappa: int) -> int:
    """Round count: ``2κ`` (2-round GC with the coin in its second round)."""
    return MICALI_VAIKUNTANATHAN.rounds(kappa)


def micali_vaikuntanathan_program(
    ctx: Context,
    bit: int,
    kappa: int,
    coin_factory: Optional[CoinFactory] = None,
):
    """Binary fixed-round MV-style Byzantine Agreement, t < n/2, 2κ rounds."""
    return MICALI_VAIKUNTANATHAN.program(ctx, bit, kappa, coin_factory)


def _crusader_pki_program(ctx: Context, value: Any):
    """2-round crusader agreement with *plain* signatures (PKI mode).

    Round 1: sign and send the input.  Round 2: forward the full list of
    ``n - t`` matching signatures as a certificate (this is the factor-``n``
    communication overhead of standard-signature protocols that the paper's
    §3.5 comparison refers to).  Grade 1 on ``v`` iff this party assembled
    the certificate for ``v`` already at the end of round 1 (hence everyone
    learns ``v`` in round 2) and saw no certificate for any other value.
    """
    n, t = ctx.num_parties, ctx.max_faulty
    scheme = ctx.crypto.plain
    message = lambda v: ("mv-pki", ctx.session, v)

    signature = scheme.sign(ctx.party_id, message(value))
    inbox = yield ctx.broadcast({"mvp": (value, signature)})
    votes: Dict[Any, List[Tuple[int, Any]]] = {}
    for sender, payload in inbox.items():
        pair = get_field(payload, "mvp")
        if not (isinstance(pair, tuple) and len(pair) == 2):
            continue
        v, sig = pair
        try:
            hash(v)
        except TypeError:
            continue
        if scheme.verify(sender, sig, message(v)):
            votes.setdefault(v, []).append((sender, sig))
    certificates = {
        v: signers[: n - t] for v, signers in votes.items() if len(signers) >= n - t
    }

    inbox = yield ctx.broadcast({"mvc": [(v, certificates[v]) for v in certificates]})
    certified = set(certificates)
    for payload in inbox.values():
        items = get_field(payload, "mvc")
        if not isinstance(items, (list, tuple)):
            continue
        for item in items:
            if not (isinstance(item, (list, tuple)) and len(item) == 2):
                continue
            v, cert = item
            try:
                hash(v)
            except TypeError:
                continue
            if v in certified or not isinstance(cert, (list, tuple)):
                continue
            valid_signers = set()
            for entry in cert:
                if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                    continue
                signer, sig = entry
                if isinstance(signer, int) and scheme.verify(signer, sig, message(v)):
                    valid_signers.add(signer)
            if len(valid_signers) >= n - t:
                certified.add(v)
    # Grade 1 demands a certificate formed in round 1: that certificate was
    # forwarded, so every honest party has the value in `certified` — this
    # is what makes two grade-1 outputs on different values impossible.
    if len(certified) == 1 and certificates:
        return ProxOutput(next(iter(certified)), 1)
    return ProxOutput(0, 0)


#: ``κ`` iterations of :func:`_crusader_pki_program`.
MV_PKI = FixedRoundBA(
    "mv_pki", 2, _crusader_iteration(_crusader_pki_program, "mvp"), lambda kappa: kappa
)


def mv_pki_program(
    ctx: Context,
    bit: int,
    kappa: int,
    coin_factory: Optional[CoinFactory] = None,
):
    """MV in PKI mode (plain signatures): same 2κ rounds, O(κ n³) comm."""
    return MV_PKI.program(ctx, bit, kappa, coin_factory)
