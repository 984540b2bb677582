//! Application behaviour profiles.
//!
//! PPLive, SopCast and TVAnts were proprietary and closed; what the paper
//! (and the companion NAPA-WINE technical report) established about them
//! empirically is encoded here as parameter sets over one common
//! mesh-pull protocol engine:
//!
//! * **PPLive-like** — enormous contacted-peer population (aggressive
//!   gossip/"halo" probing), heavy signalling overhead, wide provider
//!   rotation, very aggressive exploitation of high-bandwidth peers as
//!   upload amplifiers (mean probe TX ≈ 9× the stream rate), moderate
//!   same-AS byte preference;
//! * **SopCast-like** — mid-sized overlay, bandwidth-driven but
//!   location-blind selection, modest upload contribution;
//! * **TVAnts-like** — small, stable overlay, strong same-AS (and
//!   residual same-country) preference on both download and upload,
//!   sticky providers, upload ≈ download.
//!
//! These numbers are *calibration targets*, not measurements of the
//! originals: they are tuned until the passive analysis framework applied
//! to the simulated traces reproduces the shape of Tables II–IV and
//! Figs. 1–2 of the paper. The `uniform_selection` variant strips all
//! network awareness and is the control arm of the ablation experiments.

use crate::policy::SelectionPolicy;
use serde::{Deserialize, Serialize};

/// Sender-driven epidemic push policy (Mathieu & Perino): when present,
/// the profile's behaviour stack includes the epidemic push built-in,
/// which pushes the latest useful buffered chunk to one neighbor every
/// tick instead of waiting to be asked.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PushPolicy {
    /// Exponent biasing target choice toward high-upstream neighbors.
    /// `0.0` is the random-peer policy; positive values are the
    /// bandwidth-aware variant (capacity-proportional at `1.0`).
    pub bw_exponent: f64,
}

/// Complete behaviour description of one P2P-TV application.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AppProfile {
    /// Application name as printed in tables.
    pub name: String,
    /// Provider-selection policy for the download side.
    pub download_policy: SelectionPolicy,
    /// Locality weights governing which external requesters demand upload
    /// from probes (bandwidth term unused — all requesters see the same
    /// probe).
    pub upload_policy: SelectionPolicy,
    /// Probability that a chunk request explores a never-tried neighbor
    /// instead of exploiting known providers. Sets the contributor-set
    /// width (PPLive's hundreds vs TVAnts' dozens).
    pub exploration: f64,
    /// Exponent biasing *neighbor discovery* toward high-upstream peers
    /// (gossip advertises good uploaders); the mechanism that makes
    /// 83–86 % of contributors high-bandwidth out of a much poorer
    /// population.
    pub discovery_bw_exponent: f64,
    /// Multiplier biasing discovery toward same-AS peers (TVAnts finds
    /// same-AS peers far more efficiently than the others).
    pub discovery_as_boost: f64,
    /// Protocol tick period, µs.
    pub tick_us: u64,
    /// Neighbor-table capacity.
    pub max_neighbors: usize,
    /// Neighbors handed out by the tracker at join.
    pub init_neighbors: usize,
    /// Mean external-neighbor lifetime, µs (exponential churn).
    pub neighbor_lifetime_us: u64,
    /// Expected new external neighbors acquired per tick (when below
    /// capacity).
    pub discovery_per_tick: f64,
    /// Probability that any given pair of probes end up neighbors (all
    /// probes watch the same channel; denser for small overlays).
    pub probe_mesh_prob: f64,
    /// Rate of signalling-only "halo" contacts per second — the discovery
    /// probing that makes PPLive's contacted-peer count enormous.
    pub halo_contacts_per_sec: f64,
    /// Startup playout delay, in chunks.
    pub buffer_delay_chunks: u32,
    /// Maximum in-flight chunk requests.
    pub max_parallel_requests: usize,
    /// Chunk-request timeout before re-requesting elsewhere, µs.
    pub request_timeout_us: u64,
    /// Target mean TX rate of an unconstrained (LAN) probe, as a multiple
    /// of the stream rate. PPLive ≈ 9, TVAnts ≈ 1.2, SopCast ≈ 0.8.
    pub upload_target_factor: f64,
    /// Uplink backlog (µs of queued transmission) above which a probe
    /// refuses further upload requests.
    pub upload_backlog_cap_us: u64,
    /// Probability that a demand event re-uses a recent requester rather
    /// than drafting a new one (sets upload-contributor width).
    pub demand_stickiness: f64,
    /// Buffer-map announcements per tick: (sent by probe, received from
    /// neighbors). The RX side is the main signalling overhead — PPLive's
    /// measured RX rate exceeds the stream rate by ~170 kb/s because of
    /// it.
    pub announces_per_tick: (u32, u32),
    /// Entries per peer-list reply (sets the reply packet size).
    pub peerlist_entries: u8,
    /// Full-scale external overlay size (scaled by the scenario).
    pub overlay_size: usize,
    /// Pareto shape spreading upload popularity across probes (higher =
    /// more uniform; the max/mean TX gap in Table II comes from this).
    pub popularity_spread: f64,
    /// Sender-driven epidemic push policy; `None` (all tracker-era
    /// paper profiles) keeps the stack pull-only and byte-identical to
    /// the pre-epidemic engine.
    pub push: Option<PushPolicy>,
}

impl AppProfile {
    /// The PPLive-like profile.
    pub fn pplive() -> Self {
        AppProfile {
            name: "PPLive".into(),
            download_policy: SelectionPolicy {
                bw_exponent: 1.2,
                same_as_boost: 1.3,
                subnet_boost: 4.0,
                same_cc_boost: 1.1,
                stickiness: 6.0,
            },
            upload_policy: SelectionPolicy {
                bw_exponent: 0.0,
                same_as_boost: 2.0,
                subnet_boost: 3.0,
                same_cc_boost: 1.2,
                stickiness: 1.0,
            },
            exploration: 0.055,
            discovery_bw_exponent: 0.75,
            discovery_as_boost: 1.5,
            tick_us: 200_000,
            max_neighbors: 320,
            init_neighbors: 60,
            neighbor_lifetime_us: 500_000_000, // ~8.3 min
            discovery_per_tick: 0.35,
            probe_mesh_prob: 0.55,
            halo_contacts_per_sec: 6.1,
            buffer_delay_chunks: 12,
            max_parallel_requests: 10,
            request_timeout_us: 1_800_000,
            upload_target_factor: 12.0,
            upload_backlog_cap_us: 400_000,
            demand_stickiness: 0.6,
            announces_per_tick: (6, 26),
            peerlist_entries: 30,
            overlay_size: 181_000,
            popularity_spread: 1.2,
            push: None,
        }
    }

    /// The SopCast-like profile.
    pub fn sopcast() -> Self {
        AppProfile {
            name: "SopCast".into(),
            download_policy: SelectionPolicy {
                bw_exponent: 1.1,
                same_as_boost: 1.0,
                subnet_boost: 1.0,
                same_cc_boost: 1.0,
                stickiness: 4.0,
            },
            upload_policy: SelectionPolicy::uniform(),
            exploration: 0.02,
            discovery_bw_exponent: 0.7,
            discovery_as_boost: 1.0,
            tick_us: 250_000,
            max_neighbors: 110,
            init_neighbors: 40,
            neighbor_lifetime_us: 1_100_000_000,
            discovery_per_tick: 0.08,
            probe_mesh_prob: 0.35,
            halo_contacts_per_sec: 0.12,
            buffer_delay_chunks: 14,
            max_parallel_requests: 8,
            request_timeout_us: 2_000_000,
            upload_target_factor: 0.72,
            upload_backlog_cap_us: 300_000,
            demand_stickiness: 0.5,
            announces_per_tick: (4, 10),
            peerlist_entries: 20,
            overlay_size: 4_000,
            popularity_spread: 0.8,
            push: None,
        }
    }

    /// The TVAnts-like profile.
    pub fn tvants() -> Self {
        AppProfile {
            name: "TVAnts".into(),
            download_policy: SelectionPolicy {
                bw_exponent: 1.1,
                same_as_boost: 3.2,
                subnet_boost: 3.2,
                same_cc_boost: 1.3,
                stickiness: 10.0,
            },
            upload_policy: SelectionPolicy {
                bw_exponent: 0.0,
                same_as_boost: 5.0,
                subnet_boost: 5.0,
                same_cc_boost: 1.15,
                stickiness: 1.0,
            },
            exploration: 0.013,
            discovery_bw_exponent: 0.7,
            discovery_as_boost: 3.0,
            tick_us: 250_000,
            max_neighbors: 55,
            init_neighbors: 30,
            neighbor_lifetime_us: 2_400_000_000,
            discovery_per_tick: 0.04,
            probe_mesh_prob: 0.7,
            halo_contacts_per_sec: 0.035,
            buffer_delay_chunks: 14,
            max_parallel_requests: 6,
            request_timeout_us: 2_000_000,
            upload_target_factor: 0.75,
            upload_backlog_cap_us: 300_000,
            demand_stickiness: 0.7,
            announces_per_tick: (3, 7),
            peerlist_entries: 16,
            overlay_size: 520,
            popularity_spread: 0.5,
            push: None,
        }
    }

    /// All three paper profiles, in the paper's presentation order.
    pub fn paper_apps() -> Vec<AppProfile> {
        vec![Self::pplive(), Self::sopcast(), Self::tvants()]
    }

    /// Every registered profile, in stable presentation order: the three
    /// paper applications first, then the extension profiles. Anything
    /// that enumerates selectable profiles (CLI lookup, sweeps, golden
    /// coverage) must route through this list so a newly registered
    /// profile cannot be silently skipped.
    pub fn all() -> Vec<AppProfile> {
        vec![
            Self::pplive(),
            Self::sopcast(),
            Self::tvants(),
            Self::pplive_unpopular(),
            Self::nextgen(),
            Self::epidemic_rp(),
            Self::epidemic_ba(),
        ]
    }

    /// Looks a registered profile up by name, case-insensitively, with
    /// the historical CLI aliases (`nextgen` for NAPA-NG,
    /// `epidemic_rp`/`epidemic_ba` underscore forms).
    pub fn by_name(name: &str) -> Option<AppProfile> {
        let want = name.to_ascii_lowercase().replace('_', "-");
        let want = match want.as_str() {
            "nextgen" => "napa-ng".to_string(),
            "pplive-unpop" | "pplive-unpopular" => "pplive-unpop".to_string(),
            other => other.to_string(),
        };
        Self::all()
            .into_iter()
            .find(|p| p.name.to_ascii_lowercase() == want)
    }

    /// PPLive tuned to a less-popular channel: the paper ran PPLive on
    /// both a popular (CCTV-1 at China peak) and a less-popular channel —
    /// Fig. 2 shows them as separate panels. A thin audience means a
    /// smaller overlay, slower discovery, fewer simultaneous requesters
    /// and a smaller amplification role for high-bandwidth peers, while
    /// the selection machinery is byte-identical to [`Self::pplive`].
    pub fn pplive_unpopular() -> Self {
        AppProfile {
            name: "PPLive-Unpop".into(),
            overlay_size: 9_000,
            halo_contacts_per_sec: 0.9,
            max_neighbors: 120,
            init_neighbors: 35,
            discovery_per_tick: 0.12,
            upload_target_factor: 3.5,
            popularity_spread: 0.9,
            ..Self::pplive()
        }
    }

    /// The system the paper's conclusion calls for: a next-generation,
    /// fully network-aware client ("future P2P-TV applications could
    /// improve the level of network-awareness, by better localizing the
    /// traffic the network has to carry").
    ///
    /// Built on the SopCast-like base (so every difference against that
    /// profile is attributable to awareness alone): aggressive same-AS /
    /// same-country preference in both discovery and selection, on top
    /// of the usual bandwidth awareness. The `nextgen` example and the
    /// `netfriend` metrics quantify how much transit traffic this saves
    /// and what it costs.
    pub fn nextgen() -> Self {
        AppProfile {
            name: "NAPA-NG".into(),
            download_policy: SelectionPolicy {
                bw_exponent: 1.0,
                same_as_boost: 20.0,
                subnet_boost: 20.0,
                same_cc_boost: 6.0,
                stickiness: 4.0,
            },
            upload_policy: SelectionPolicy {
                bw_exponent: 0.0,
                same_as_boost: 20.0,
                subnet_boost: 20.0,
                same_cc_boost: 6.0,
                stickiness: 1.0,
            },
            discovery_as_boost: 12.0,
            ..Self::sopcast()
        }
    }

    /// Epidemic diffusion, random-peer/latest-useful push (Mathieu &
    /// Perino's baseline policy): every tick each peer pushes the newest
    /// useful chunk it holds to a uniformly random neighbor. Selection
    /// is location- and bandwidth-blind everywhere — diffusion quality
    /// comes from push fan-out, not from choosing good providers — so
    /// the passive analysis should fingerprint it as network-*unaware*
    /// (near-uniform locality, no BW preference on the push side).
    pub fn epidemic_rp() -> Self {
        AppProfile {
            name: "Epidemic-RP".into(),
            download_policy: SelectionPolicy::uniform(),
            upload_policy: SelectionPolicy::uniform(),
            exploration: 0.04,
            discovery_bw_exponent: 0.0,
            discovery_as_boost: 1.0,
            push: Some(PushPolicy { bw_exponent: 0.0 }),
            ..Self::sopcast()
        }
    }

    /// Epidemic diffusion, bandwidth-aware push (Mathieu & Perino's
    /// resource-aware variant): same push machinery as
    /// [`Self::epidemic_rp`], but push targets are drawn proportionally
    /// to their upstream capacity (and discovery keeps a mild BW bias),
    /// concentrating diffusion through high-capacity relays. The
    /// analysis must distinguish the two: BA shows a strong BW
    /// preference where RP shows none, while both stay location-blind.
    pub fn epidemic_ba() -> Self {
        AppProfile {
            name: "Epidemic-BA".into(),
            push: Some(PushPolicy { bw_exponent: 1.0 }),
            discovery_bw_exponent: 0.7,
            ..Self::epidemic_rp()
        }
    }

    /// Ablation control: same traffic volumes and overlay dynamics, but
    /// *every* selection decision is uniform-random and discovery is
    /// unbiased. Applying the analysis to this variant must show no
    /// preference on any metric.
    pub fn uniform_selection(mut self) -> Self {
        self.name = format!("{}-random", self.name);
        self.download_policy = SelectionPolicy::uniform();
        self.upload_policy = SelectionPolicy::uniform();
        self.discovery_bw_exponent = 0.0;
        self.discovery_as_boost = 1.0;
        self.exploration = self.exploration.max(0.02);
        self
    }

    /// Builds the behaviour stack this profile composes from the
    /// built-ins: the profile is a *behaviour-stack constructor* — each
    /// concern module reads its own parameter slice and the swarm wires
    /// them to one dispatcher.
    pub(crate) fn stack(&self) -> crate::swarm::BehaviourStack {
        use crate::swarm::{announce, churn_recovery, discovery, epidemic, scheduling};
        crate::swarm::BehaviourStack {
            discovery: discovery::Discovery::from_profile(self),
            announce: announce::Announce::from_profile(self),
            recovery: churn_recovery::ChurnRecovery::default(),
            scheduling: scheduling::Scheduling::from_profile(self),
            epidemic: self
                .push
                .as_ref()
                .map(|p| epidemic::EpidemicPush::from_policy(p, self.upload_backlog_cap_us)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_apps_in_order() {
        let apps = AppProfile::paper_apps();
        let names: Vec<&str> = apps.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["PPLive", "SopCast", "TVAnts"]);
    }

    #[test]
    fn overlay_size_ordering_matches_paper() {
        // Fig. 1 totals: PPLive 181 729 ≫ SopCast 4 057 > TVAnts 550.
        let (p, s, t) = (
            AppProfile::pplive(),
            AppProfile::sopcast(),
            AppProfile::tvants(),
        );
        assert!(p.overlay_size > s.overlay_size);
        assert!(s.overlay_size > t.overlay_size);
    }

    #[test]
    fn locality_awareness_ordering() {
        let (p, s, t) = (
            AppProfile::pplive(),
            AppProfile::sopcast(),
            AppProfile::tvants(),
        );
        assert!(t.download_policy.same_as_boost > p.download_policy.same_as_boost);
        assert_eq!(s.download_policy.same_as_boost, 1.0);
        assert!(t.discovery_as_boost > s.discovery_as_boost);
    }

    #[test]
    fn everyone_is_bw_aware() {
        for app in AppProfile::paper_apps() {
            assert!(
                app.download_policy.bw_exponent > 1.0,
                "{} must be BW-aware",
                app.name
            );
            assert!(app.discovery_bw_exponent > 0.0);
        }
    }

    #[test]
    fn pplive_is_the_amplifier() {
        let p = AppProfile::pplive();
        assert!(p.upload_target_factor > 5.0);
        assert!(p.halo_contacts_per_sec > 1.0);
        assert!(AppProfile::sopcast().upload_target_factor < 1.0);
    }

    #[test]
    fn unpopular_channel_is_a_thinner_pplive() {
        let pop = AppProfile::pplive();
        let unpop = AppProfile::pplive_unpopular();
        assert!(unpop.overlay_size < pop.overlay_size / 10);
        assert!(unpop.halo_contacts_per_sec < pop.halo_contacts_per_sec);
        assert!(unpop.upload_target_factor < pop.upload_target_factor);
        // The selection machinery is identical — only audience size and
        // intensity change.
        assert_eq!(
            unpop.download_policy.same_as_boost,
            pop.download_policy.same_as_boost
        );
        assert_eq!(
            unpop.download_policy.bw_exponent,
            pop.download_policy.bw_exponent
        );
    }

    #[test]
    fn uniform_variant_strips_awareness() {
        let u = AppProfile::tvants().uniform_selection();
        assert_eq!(u.name, "TVAnts-random");
        assert_eq!(u.download_policy.bw_exponent, 0.0);
        assert_eq!(u.download_policy.same_as_boost, 1.0);
        assert_eq!(u.discovery_bw_exponent, 0.0);
        assert_eq!(u.discovery_as_boost, 1.0);
    }

    #[test]
    fn all_contains_every_registered_profile_once() {
        let names: Vec<String> = AppProfile::all().iter().map(|p| p.name.clone()).collect();
        assert_eq!(
            names,
            vec![
                "PPLive",
                "SopCast",
                "TVAnts",
                "PPLive-Unpop",
                "NAPA-NG",
                "Epidemic-RP",
                "Epidemic-BA"
            ]
        );
        // Paper apps are a strict prefix, preserving presentation order.
        let paper: Vec<String> = AppProfile::paper_apps()
            .iter()
            .map(|p| p.name.clone())
            .collect();
        assert_eq!(&names[..3], &paper[..]);
    }

    #[test]
    fn by_name_resolves_names_and_aliases() {
        for p in AppProfile::all() {
            let found = AppProfile::by_name(&p.name).expect("own name resolves");
            assert_eq!(found.name, p.name);
            let found = AppProfile::by_name(&p.name.to_ascii_uppercase()).unwrap();
            assert_eq!(found.name, p.name);
        }
        assert_eq!(AppProfile::by_name("nextgen").unwrap().name, "NAPA-NG");
        assert_eq!(AppProfile::by_name("napa-ng").unwrap().name, "NAPA-NG");
        assert_eq!(
            AppProfile::by_name("epidemic_rp").unwrap().name,
            "Epidemic-RP"
        );
        assert_eq!(
            AppProfile::by_name("epidemic-ba").unwrap().name,
            "Epidemic-BA"
        );
        assert!(AppProfile::by_name("no-such-app").is_none());
    }

    #[test]
    fn epidemic_profiles_differ_only_in_resource_awareness() {
        let rp = AppProfile::epidemic_rp();
        let ba = AppProfile::epidemic_ba();
        // Paper profiles are pull-only; the epidemic pair pushes.
        for p in AppProfile::paper_apps() {
            assert!(p.push.is_none(), "{} must stay pull-only", p.name);
        }
        let (rp_push, ba_push) = (rp.push.unwrap(), ba.push.unwrap());
        assert_eq!(rp_push.bw_exponent, 0.0, "RP pushes blind");
        assert!(ba_push.bw_exponent > 0.0, "BA pushes by capacity");
        // Both are location-blind: locality fingerprints must come out
        // flat, unlike TVAnts/NAPA-NG.
        for p in [&rp, &ba] {
            assert_eq!(p.download_policy.same_as_boost, 1.0);
            assert_eq!(p.upload_policy.same_as_boost, 1.0);
            assert_eq!(p.discovery_as_boost, 1.0);
        }
    }

    #[test]
    fn contributor_width_ordering() {
        // Exploration sets contributor counts: PPLive ≫ SopCast > TVAnts.
        let (p, s, t) = (
            AppProfile::pplive(),
            AppProfile::sopcast(),
            AppProfile::tvants(),
        );
        assert!(p.exploration > s.exploration);
        assert!(s.exploration > t.exploration);
    }
}
