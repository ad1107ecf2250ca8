//! Reproduce Figure 5 / Figure 9 / §4.3: the NIC PFC pause frame storm.
//!
//! At t = 8 ms one NIC's receive pipeline dies and it starts pausing its
//! ToR continuously. Without watchdogs the pauses propagate ToR → Leaf →
//! ToR and block innocent server pairs; with the paper's two
//! complementary watchdogs (NIC micro-controller + switch port guard) the
//! storm is contained and every victim pair keeps its throughput.
//!
//! ```sh
//! cargo run --release --example pfc_storm
//! ```

use rocescale::core::scenarios::storm;
use rocescale::sim::SimTime;

fn main() {
    let dur = SimTime::from_millis(40);
    let arms = [false, true].map(|watchdogs| storm::run(watchdogs, dur));
    for r in &arms {
        println!(
            "watchdogs {:<5} | healthy victim pairs {}/{} | victim pause frames {} | \
             nic wd fired: {} | switch wd fired: {}",
            r.watchdogs,
            r.healthy_pairs,
            r.total_pairs,
            r.victim_pause_rx,
            r.nic_watchdog_fired,
            r.switch_watchdog_fired
        );
    }
    println!();
    println!("availability over time (Figure 9(a) shape), storm starts at 20% of the run:");
    for r in &arms {
        let cells: Vec<String> = r
            .availability
            .iter()
            .map(|(_, a)| format!("{:>4.0}%", a * 100.0))
            .collect();
        println!("  watchdogs {:<5} {}", r.watchdogs, cells.join(" "));
    }
}
