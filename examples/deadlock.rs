//! Reproduce Figure 4 / §4.2: the PFC deadlock ("yes, it happened!").
//!
//! The paper's four-switch Clos fragment (one pod, two ToRs, two leaves,
//! no spine): two dead servers leave *incomplete ARP entries* (IP→MAC
//! alive for 4 hours, MAC→port expired after 5 minutes), the ToRs flood
//! their lossless packets, flood copies park on paused fabric ports, and
//! the pause-wait cycle through both ToRs and both leaves freezes the
//! fabric permanently. The fix — dropping lossless packets on incomplete
//! ARP entries — removes the flood and the cycle never forms.
//!
//! ```sh
//! cargo run --release --example deadlock
//! ```

use rocescale::core::scenarios::deadlock;
use rocescale::core::InstrumentationProfile;
use rocescale::sim::SimTime;

fn main() {
    let dur = SimTime::from_millis(40);
    for fix in [false, true] {
        let instr = InstrumentationProfile::paper_default();
        let r = deadlock::run(fix, SimTime::ZERO, dur, instr);
        println!(
            "fix {:<5} | deadlocked switches: {:?}",
            r.fix_enabled, r.deadlocked_switches
        );
        println!(
            "          | live traffic in final 10 ms: {:.1} MB, pause frames: {}, fix drops: {}",
            r.tail_goodput_bytes as f64 / 1e6,
            r.pauses,
            r.fix_drops
        );
    }
    println!();
    println!("without the fix, the cyclic buffer dependency wedges all four switches and even");
    println!("the flow to the live server S5 stops — \"it does not go away even if we restart");
    println!("all the servers.\" With the fix, S5 keeps its full rate.");
}
