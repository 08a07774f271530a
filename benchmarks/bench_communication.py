"""TAB-COMM — communication-complexity claims, measured.

Paper claims reproduced:

* Corollary 1: ``Prox_{2^r+1}`` costs ``O(r n²)`` **messages** and zero
  signatures (perfect security).
* Lemma 3 / Lemma 7: the t<n/2 Proxcensus protocols cost ``O(r n²)``
  signatures.
* Corollary 2: both BA protocols cost ``O(κ n²)``.
* §3.5: MV with plain signatures (PKI mode) costs ``O(κ n³)`` — a factor
  ``n`` above the threshold-signature versions; measured here as a
  signature-count ratio that grows linearly with ``n``.

"Shape" checks: quadrupling-with-n (n → 2n multiplies honest messages by
~4 for n²-protocols) and linear growth in r / κ.

Executions go through the experiment engine's single-trial path
(:func:`repro.engine.run_trial`) with signature tallies ON — this is the
one experiment family whose *measurement* is the signature count.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.engine import TrialSpec, run_trial


def _measure(protocol, params, n, t, session):
    spec = TrialSpec(
        protocol=protocol,
        inputs=tuple(i % 2 for i in range(n)),
        max_faulty=t,
        params=tuple(sorted(params.items())),
        seed=0,
        session=session,
        setup_seed=n * 31 + t,
    )
    res = run_trial(spec)
    return res.metrics


def test_proxcensus_message_complexity_is_r_n_squared(report_sink):
    rows = []
    for family, protocol, t_of in (
        ("one_third (Cor. 1)", "prox_one_third", lambda n: (n - 1) // 3),
        ("linear_half (Lem. 3)", "prox_linear_half", lambda n: (n - 1) // 2),
        (
            "quadratic_half (Lem. 7)",
            "prox_quadratic_half",
            lambda n: (n - 1) // 2,
        ),
    ):
        base_rounds = 3
        for n in (4, 8):
            m = _measure(
                protocol, {"rounds": base_rounds}, n, t_of(n),
                f"cm-{family}-{n}",
            )
            rows.append(
                [family, n, base_rounds, m.honest_messages, m.honest_signatures]
            )
        # message growth with n: ~ (8/4)^2 = 4x (honest-only counts).
        small = _measure(protocol, {"rounds": 3}, 4, t_of(4), f"cs-{family}")
        large = _measure(protocol, {"rounds": 3}, 8, t_of(8), f"cl-{family}")
        ratio = large.honest_messages / small.honest_messages
        assert 2.5 <= ratio <= 5.5, (family, ratio)
        # message growth with r is linear-ish: r=6 <= 2.6x of r=3.
        deep = _measure(protocol, {"rounds": 6}, 4, t_of(4), f"cd-{family}")
        assert deep.honest_messages <= 2.6 * small.honest_messages
    report_sink.append(
        "\nTAB-COMM (a)  Proxcensus cost at r=3 (honest messages / signatures)\n"
        + format_table(["family", "n", "rounds", "messages", "signatures"], rows)
    )


def test_one_third_proxcensus_is_signature_free(report_sink):
    metrics = _measure("prox_one_third", {"rounds": 4}, 4, 1, "cm0")
    assert metrics.total_signatures == 0
    report_sink.append(
        "TAB-COMM (b)  Prox_{2^r+1} uses 0 signatures (perfect security, Cor. 1)"
    )


def test_ba_cost_is_kappa_n_squared(report_sink):
    rows = []
    for name, protocol, n, t in (
        ("ours t<n/3", "ba_one_third", 4, 1),
        ("ours t<n/2", "ba_one_half", 5, 2),
    ):
        for kappa in (4, 8):
            m = _measure(protocol, {"kappa": kappa}, n, t, f"cb-{name}-{kappa}")
            rows.append([name, kappa, n, m.honest_messages, m.honest_signatures])
        small = _measure(protocol, {"kappa": 4}, n, t, f"cb2-{name}")
        large = _measure(protocol, {"kappa": 8}, n, t, f"cb3-{name}")
        # linear in kappa: doubling kappa at most ~doubles messages.
        assert large.honest_messages <= 2.4 * small.honest_messages
    report_sink.append(
        "TAB-COMM (c)  BA cost (honest messages / signatures), O(kappa n^2)\n"
        + format_table(["protocol", "kappa", "n", "messages", "signatures"], rows)
    )


def test_pki_mode_costs_factor_n_more_signatures(report_sink):
    rows = []
    ratios = []
    for n in (5, 9, 13):
        t = (n - 1) // 2
        threshold = _measure(
            "micali_vaikuntanathan", {"kappa": 3}, n, t, f"ct{n}"
        )
        pki = _measure("mv_pki", {"kappa": 3}, n, t, f"cp{n}")
        ratio = pki.honest_signatures / threshold.honest_signatures
        ratios.append(ratio)
        rows.append(
            [
                n,
                threshold.honest_signatures,
                pki.honest_signatures,
                f"{ratio:.2f}",
            ]
        )
    # The ratio grows with n — the asymptotic factor-n gap of §3.5.
    assert ratios[0] < ratios[1] < ratios[2]
    report_sink.append(
        "TAB-COMM (d)  MV threshold-signature mode vs PKI mode "
        "(signatures; §3.5 factor-n gap)\n"
        + format_table(["n", "threshold sigs", "PKI sigs", "ratio"], rows)
    )
