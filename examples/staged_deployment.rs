//! §6.1 — the paper's step-by-step onboarding, replayed.
//!
//! "In the third step, we enabled RDMA in production networks at ToR
//! level only. In the fourth step, we enabled PFC at the Podset level …
//! In the last step, we enabled PFC up to the Spine switches."
//!
//! The same cross-rack incast workload runs at each stage, starting
//! from a fabric with PFC on no tier; where PFC is not yet enabled, RDMA traffic rides lossy classes and congestion
//! sheds packets (go-back-N recovers, at a goodput cost). Only the full
//! rollout is loss-free end to end — and the config monitor, checking
//! each stage's running fabric against the end state's profiles (PFC up
//! to the spine), lists the devices whose lossless classes are not yet
//! the ones the end state derives for their tier.
//!
//! ```sh
//! cargo run --release --example staged_deployment
//! ```

use rocescale::core::{CcKind, ClusterBuilder, DeploymentStage, FabricProfile, TransportProfile};
use rocescale::monitor::config::ConfigField;
use rocescale::nic::QpApp;
use rocescale::switch::DropReason;

fn main() {
    // The end state: the paper's fabric, PFC up to the spine.
    let desired = FabricProfile::paper_default();
    let transport = TransportProfile::paper_default().cc(CcKind::Off);
    let mut monitor = Vec::new();
    println!(
        "{:<10} {:>14} {:>12} {:>12} {:>14}",
        "stage", "goodput(Gb/s)", "lossy drops", "ll drops", "pauses"
    );
    for stage in [
        DeploymentStage::Off,
        DeploymentStage::TorOnly,
        DeploymentStage::Podset,
        DeploymentStage::Spine,
    ] {
        let mut c = ClusterBuilder::two_tier(2, 4)
            .fabric(desired.clone().stage(stage))
            .transport(transport)
            .seed(13)
            .build();
        let rack0 = c.servers_under(0, 0);
        let rack1 = c.servers_under(0, 1);
        for (i, s) in rack0.iter().enumerate() {
            c.connect_qp(
                *s,
                rack1[0],
                (4500 + i) as u16,
                QpApp::Saturate {
                    msg_len: 1 << 20,
                    inflight: 2,
                },
                QpApp::None,
            );
        }
        c.run_for_millis(8);
        println!(
            "{:<10} {:>14.2} {:>12} {:>12} {:>14}",
            format!("{stage:?}"),
            c.rdma(rack1[0]).total_goodput_bytes() as f64 * 8.0 / 0.008 / 1e9,
            c.total_drops_of(DropReason::LossyOverflow),
            c.lossless_drops(),
            c.total_switch_pause_tx(),
        );
        let devices: Vec<String> = c
            .config_deviations(&desired, &transport)
            .into_iter()
            .filter(|d| d.field == ConfigField::LosslessClasses)
            .map(|d| d.device)
            .collect();
        monitor.push((stage, devices));
    }

    println!();
    println!(
        "config monitor: devices whose lossless classes are not yet the {:?} stage's",
        desired.stage
    );
    for (stage, devices) in monitor {
        let listed = if devices.is_empty() {
            "none".to_string()
        } else {
            devices.join(" ")
        };
        println!("  {:<8} {listed}", format!("{stage:?}:"));
    }
}
