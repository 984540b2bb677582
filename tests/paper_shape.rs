//! Acceptance tests for the paper's findings (DESIGN.md §"shape
//! acceptance criteria"): the analysis applied to the simulated testbed
//! must reproduce the *conclusions* of Tables II–IV and Figs. 1–2.

mod common;

use common::{output, suite};

// ---------- Table IV: BW awareness (§IV-A) ----------

#[test]
fn every_app_prefers_high_bandwidth_peers() {
    for out in suite() {
        let bw = out.analysis.preference("BW").unwrap();
        // "high-bandwidth peers represent 83–86% of the contributors,
        // from which 96–98% of the traffic is received"
        assert!(
            bw.download_all.peers_pct > 75.0,
            "{}: P_D = {:.1}%",
            out.app,
            bw.download_all.peers_pct
        );
        assert!(
            bw.download_all.bytes_pct > 90.0,
            "{}: B_D = {:.1}%",
            out.app,
            bw.download_all.bytes_pct
        );
    }
}

#[test]
fn bw_preference_survives_excluding_probes() {
    // "The NAPA-WINE peers add little bias, so that percentages do not
    // change much by excluding them."
    for out in suite() {
        let bw = out.analysis.preference("BW").unwrap();
        let delta = (bw.download_all.bytes_pct - bw.download_nonw.bytes_pct).abs();
        assert!(delta < 10.0, "{}: Δ = {:.1}", out.app, delta);
    }
}

#[test]
fn bw_is_download_only() {
    for out in suite() {
        let bw = out.analysis.preference("BW").unwrap();
        assert!(!bw.upload_all.is_measurable());
        assert!(!bw.upload_nonw.is_measurable());
    }
}

// ---------- Table IV: AS / CC awareness (§IV-B) ----------

#[test]
fn tvants_is_strongly_as_aware() {
    let a = output("TVAnts").analysis.preference("AS").unwrap();
    // Paper: B_D = 32.0%, P_D = 13.5%.
    assert!(
        a.download_all.bytes_pct > 15.0,
        "B_D = {:.1}%",
        a.download_all.bytes_pct
    );
    assert!(
        a.download_all.bytes_pct > 1.5 * a.download_all.peers_pct,
        "bytes must concentrate beyond peer share"
    );
    // Upload side too (paper: B_U = 30.1%).
    assert!(a.upload_all.bytes_pct > 10.0);
}

#[test]
fn pplive_as_awareness_is_byte_heavy() {
    let a = output("PPLive").analysis.preference("AS").unwrap();
    // Paper: B_D = 12.8% from P_D = 1.3% of peers — a large B/P ratio.
    assert!(
        a.download_all.bytes_pct > 3.0 * a.download_all.peers_pct,
        "B/P = {:.1}/{:.1}",
        a.download_all.bytes_pct,
        a.download_all.peers_pct
    );
}

#[test]
fn sopcast_is_as_unaware() {
    let a = output("SopCast").analysis.preference("AS").unwrap();
    // "SopCast is unaware of AS location. Indeed, P_D is almost equal
    // to B_D" — and both are small.
    assert!(
        a.download_all.bytes_pct < 8.0,
        "B_D = {:.1}%",
        a.download_all.bytes_pct
    );
    assert!(
        a.download_nonw.bytes_pct < 2.0,
        "B'_D = {:.1}%",
        a.download_nonw.bytes_pct
    );
}

#[test]
fn as_awareness_ordering_matches_paper() {
    let t = output("TVAnts").analysis.preference("AS").unwrap();
    let p = output("PPLive").analysis.preference("AS").unwrap();
    let s = output("SopCast").analysis.preference("AS").unwrap();
    assert!(t.download_all.bytes_pct > p.download_all.bytes_pct);
    assert!(p.download_all.bytes_pct > s.download_all.bytes_pct);
}

#[test]
fn country_preference_is_explained_by_as() {
    // "Since two peers in the same AS are also located within the same
    // Country, we can state that no country preference is shown" — CC
    // tracks AS within a few points for every app.
    for out in suite() {
        let a = out.analysis.preference("AS").unwrap();
        let c = out.analysis.preference("CC").unwrap();
        let delta = c.download_all.bytes_pct - a.download_all.bytes_pct;
        assert!(
            (0.0..15.0).contains(&delta),
            "{}: CC B_D {:.1} vs AS B_D {:.1}",
            out.app,
            c.download_all.bytes_pct,
            a.download_all.bytes_pct
        );
    }
}

// ---------- Table IV: NET awareness (§IV-C) ----------

#[test]
fn net_preference_exists_only_where_as_preference_does() {
    let t = output("TVAnts").analysis.preference("NET").unwrap();
    let p = output("PPLive").analysis.preference("NET").unwrap();
    let s = output("SopCast").analysis.preference("NET").unwrap();
    assert!(
        t.download_all.bytes_pct > 5.0,
        "TVAnts NET {:.1}",
        t.download_all.bytes_pct
    );
    assert!(
        p.download_all.bytes_pct > 2.0,
        "PPLive NET {:.1}",
        p.download_all.bytes_pct
    );
    assert!(
        s.download_all.bytes_pct < 5.0,
        "SopCast NET {:.1}",
        s.download_all.bytes_pct
    );
}

#[test]
fn net_outside_probes_is_empty_or_negligible() {
    // "The set of peers in the same subnet includes only NAPA-WINE
    // peers" — non-probe same-subnet traffic must be ~0.
    for out in suite() {
        let n = out.analysis.preference("NET").unwrap();
        if n.download_nonw.is_measurable() {
            assert!(
                n.download_nonw.bytes_pct < 5.0,
                "{}: non-NAPA NET B'_D = {:.1}%",
                out.app,
                n.download_nonw.bytes_pct
            );
        }
    }
}

// ---------- Table IV: HOP awareness (§IV-D) ----------

#[test]
fn no_hop_awareness_once_probes_are_excluded() {
    // "no particular evidence of preference toward shorter paths […]
    // looking at the non-NAPA-WINE peers, almost no difference emerges"
    for out in suite() {
        let h = out.analysis.preference("HOP").unwrap();
        assert!(
            (25.0..70.0).contains(&h.download_nonw.bytes_pct),
            "{}: B'_D HOP = {:.1}%",
            out.app,
            h.download_nonw.bytes_pct
        );
    }
}

#[test]
fn self_bias_inflates_hop_preference_for_tvants() {
    // "Considering the complete set P, the self-induced bias of
    // NAPA-WINE peers shows up, artificially highlighting a HOP
    // preference."
    let h = output("TVAnts").analysis.preference("HOP").unwrap();
    assert!(
        h.download_all.bytes_pct > h.download_nonw.bytes_pct + 10.0,
        "all {:.1} vs non-NAPA {:.1}",
        h.download_all.bytes_pct,
        h.download_nonw.bytes_pct
    );
}

// ---------- Table III (§III-C) ----------

#[test]
fn self_bias_ordering_matches_paper() {
    // Paper contributors bytes%: TVAnts 56.3 ≫ SopCast 17.7 > PPLive 3.5.
    let t = output("TVAnts").analysis.selfbias;
    let s = output("SopCast").analysis.selfbias;
    let p = output("PPLive").analysis.selfbias;
    assert!(t.contrib_bytes_pct > s.contrib_bytes_pct);
    assert!(s.contrib_bytes_pct > p.contrib_bytes_pct);
    assert!(
        t.contrib_bytes_pct > 30.0,
        "TVAnts {:.1}",
        t.contrib_bytes_pct
    );
    assert!(
        p.contrib_bytes_pct < 15.0,
        "PPLive {:.1}",
        p.contrib_bytes_pct
    );
}

// ---------- Table II (§II) ----------

#[test]
fn stream_rx_rates_are_near_nominal() {
    // All apps deliver the 384 kb/s stream; RX totals sit between the
    // nominal rate and ~1.5× (signalling overhead).
    for out in suite() {
        let rx = out.analysis.summary.rx_kbps.mean;
        assert!(
            (380.0..700.0).contains(&rx),
            "{}: RX mean {:.0} kb/s",
            out.app,
            rx
        );
    }
}

#[test]
fn pplive_is_the_upload_amplifier() {
    // Paper: PPLive TX mean 3 384 kb/s vs SopCast 293 / TVAnts 464.
    let p = output("PPLive").analysis.summary.tx_kbps.mean;
    let s = output("SopCast").analysis.summary.tx_kbps.mean;
    let t = output("TVAnts").analysis.summary.tx_kbps.mean;
    assert!(p > 3.0 * s, "PPLive {p:.0} vs SopCast {s:.0}");
    assert!(p > 2.0 * t, "PPLive {p:.0} vs TVAnts {t:.0}");
}

#[test]
fn contacted_peer_counts_order_like_the_paper() {
    // PPLive contacts orders of magnitude more peers than the others.
    let p = output("PPLive").analysis.summary.peers.mean;
    let s = output("SopCast").analysis.summary.peers.mean;
    let t = output("TVAnts").analysis.summary.peers.mean;
    assert!(p > 5.0 * s, "PPLive {p:.0} vs SopCast {s:.0}");
    assert!(s > t, "SopCast {s:.0} vs TVAnts {t:.0}");
}

#[test]
fn contributors_are_a_small_subset_of_contacts() {
    for out in suite() {
        let sum = &out.analysis.summary;
        assert!(sum.contrib_rx.mean < sum.peers.mean);
        assert!(sum.contrib_rx.mean > 1.0, "{}: no contributors?", out.app);
    }
}

// ---------- Fig. 1 (§II) ----------

#[test]
fn china_dominates_peers_and_bytes() {
    for out in suite() {
        let cn = out
            .analysis
            .geo
            .rows
            .iter()
            .find(|r| r.label == "CN")
            .unwrap();
        // At CI scale the TVAnts overlay shrinks to a couple dozen
        // externals, so the 46 probes dominate the *peer* census; the
        // CN-majority peer check is only meaningful for overlays that
        // still dwarf the probe set.
        if out.analysis.geo.total_peers > 500 {
            assert!(
                cn.peers_pct > 50.0,
                "{}: CN peers {:.1}%",
                out.app,
                cn.peers_pct
            );
        } else {
            assert!(
                cn.peers_pct > 15.0,
                "{}: CN peers {:.1}%",
                out.app,
                cn.peers_pct
            );
        }
        assert!(cn.rx_pct > 15.0, "{}: CN RX {:.1}%", out.app, cn.rx_pct);
    }
}

#[test]
fn observed_population_ordering() {
    // Fig. 1 totals: PPLive 181 729 ≫ SopCast 4 057 > TVAnts 550 (scaled).
    let p = output("PPLive").analysis.geo.total_peers;
    let s = output("SopCast").analysis.geo.total_peers;
    let t = output("TVAnts").analysis.geo.total_peers;
    assert!(p > 4 * s, "PPLive {p} vs SopCast {s}");
    assert!(s > t, "SopCast {s} vs TVAnts {t}");
}

#[test]
fn european_bytes_exceed_european_peer_share() {
    // "a non negligible fraction of the data is exchanged within
    // European countries: this hints to the existence of a bias".
    let g = &output("TVAnts").analysis.geo;
    let eu_peers: f64 = g
        .rows
        .iter()
        .filter(|r| ["HU", "IT", "FR", "PL"].contains(&r.label.as_str()))
        .map(|r| r.peers_pct)
        .sum();
    let eu_rx: f64 = g
        .rows
        .iter()
        .filter(|r| ["HU", "IT", "FR", "PL"].contains(&r.label.as_str()))
        .map(|r| r.rx_pct)
        .sum();
    assert!(
        eu_rx > 0.5 * eu_peers,
        "EU RX share {eu_rx:.1}% vs peer share {eu_peers:.1}%"
    );
}

// ---------- Fig. 2 (§IV-B) ----------

#[test]
fn tvants_r_ratio_shows_as_locality() {
    let r = output("TVAnts").analysis.asmatrix.r_ratio;
    assert!(r > 1.2, "TVAnts R = {r:.2}");
}

#[test]
fn r_ratio_ordering() {
    let t = output("TVAnts").analysis.asmatrix.r_ratio;
    let s = output("SopCast").analysis.asmatrix.r_ratio;
    assert!(
        t > s,
        "location-aware TVAnts (R={t:.2}) must beat location-blind SopCast (R={s:.2})"
    );
}

// ---------- ground truth sanity ----------

#[test]
fn streams_stay_healthy() {
    for out in suite() {
        assert!(
            out.report.continuity() > 0.9,
            "{}: continuity {:.3}",
            out.app,
            out.report.continuity()
        );
    }
}

#[test]
fn hop_threshold_is_paper_fixed() {
    for out in suite() {
        assert_eq!(out.analysis.hop_threshold, 19);
    }
}
