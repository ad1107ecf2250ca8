//! The TCP host's timing: the retransmission-timeout scan is
//! demand-armed — queued only while some connection has unacknowledged
//! data, and while queued it fires on multiples of 250 µs from t = 0,
//! the instants the always-armed scan of earlier versions fired on —
//! and a connection's kernel delays are its own.

use std::any::Any;

use rocescale_packet::{MacAddr, Packet, PacketKind};
use rocescale_sim::{Ctx, LinkSpec, Node, NodeId, PortId, SimTime, World};
use rocescale_tcp::{TcpApp, TcpHost, TcpHostConfig};

const IP_A: u32 = 0x0a00_0001;
const IP_B: u32 = 0x0a00_0002;
/// The scan's timer token (`TOK_RTO`, private to the host) and period.
const SCAN: (u64, SimTime) = (2, SimTime::from_micros(250));

/// Host `i` of a pair whose gateway is simply the peer's MAC.
fn host(i: u32) -> TcpHost {
    let ip = [IP_A, IP_B][i as usize];
    TcpHost::new(TcpHostConfig::new(
        format!("t{i}"),
        i + 1,
        ip,
        MacAddr::from_id(2 - i),
    ))
}

/// A `TcpHost` that logs every timer it is handed.
struct Spy {
    host: TcpHost,
    timers: Vec<(SimTime, u64)>,
}

impl Spy {
    /// The instants the scan fired at.
    fn scans(&self) -> Vec<SimTime> {
        let scans = self.timers.iter().filter(|(_, tok)| *tok == SCAN.0);
        scans.map(|(t, _)| *t).collect()
    }
}

impl Node for Spy {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.host.on_start(ctx);
    }
    fn on_packet(&mut self, port: PortId, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.host.on_packet(port, pkt, ctx);
    }
    fn on_port_idle(&mut self, port: PortId, ctx: &mut Ctx<'_>) {
        self.host.on_port_idle(port, ctx);
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        self.timers.push((ctx.now(), token));
        self.host.on_timer(token, ctx);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A two-port store-and-forward wire that loses the `drop_nth` data
/// segment entering port 0.
struct LossyWire {
    drop_nth: u32,
    seen: u32,
}

impl Node for LossyWire {
    fn on_packet(&mut self, port: PortId, pkt: Packet, ctx: &mut Ctx<'_>) {
        if let (0, PacketKind::Tcp(seg)) = (port.0, &pkt.kind) {
            if seg.payload > 0 {
                self.seen += 1;
                if self.seen == self.drop_nth {
                    return;
                }
            }
        }
        ctx.transmit(PortId(1 - port.0), pkt)
            .expect("equal-rate links: the far port is idle again");
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A started host with no connection queues nothing, ever: after the two
/// `Start` events the world is empty, where each host used to re-arm its
/// scan for as long as the simulation ran.
#[test]
fn a_host_without_connections_schedules_nothing() {
    let mut world = World::new(13);
    let a = world.add_node(Box::new(host(0)));
    let b = world.add_node(Box::new(host(1)));
    world.connect(a, PortId(0), b, PortId(0), LinkSpec::server_40g());
    world.run_until(SimTime::from_millis(10));
    assert_eq!(world.sched_stats().pushed, 2, "the two Start events only");
    assert_eq!(world.events_processed(), 2);
    assert_eq!(world.pending_events(), 0);
}

/// Tail loss is still recovered at the instant it always was, and the
/// scan runs only while data is in flight. `a` sends one four-segment
/// message every 15 ms; the wire loses the fourth segment of the first,
/// so no later segment can draw duplicate ACKs and only the timeout
/// recovers it.
#[test]
fn tail_loss_times_out_on_the_grid_and_the_scan_stops_once_acked() {
    let mut world = World::new(13);
    let (mut a, mut b) = (host(0), host(1));
    let pinger = TcpApp::Pinger {
        payload: 4 * 1460,
        interval: SimTime::from_millis(15),
        start_at: SimTime::from_micros(10),
    };
    let conn = a.add_conn(IP_B, 40_000, 40_001, pinger);
    b.add_conn(IP_A, 40_001, 40_000, TcpApp::None);
    let spy = |host| Spy {
        host,
        timers: Vec::new(),
    };
    let a: NodeId = world.add_node(Box::new(spy(a)));
    let b: NodeId = world.add_node(Box::new(spy(b)));
    let wire = world.add_node(Box::new(LossyWire {
        drop_nth: 4,
        seen: 0,
    }));
    world.connect(a, PortId(0), wire, PortId(0), LinkSpec::server_40g());
    world.connect(wire, PortId(1), b, PortId(0), LinkSpec::server_40g());

    // The timeout fires on the line measured on the always-armed host.
    let line = SimTime::from_micros(5250);
    let timeouts = |w: &World| w.node::<Spy>(a).host.sender_stats(conn).timeouts;
    world.run_until(SimTime(line.as_ps() - 1));
    assert_eq!(timeouts(&world), 0, "not before the line");
    world.run_until(line);
    assert_eq!(timeouts(&world), 1, "on the line");

    world.run_until(SimTime::from_millis(20));
    assert_eq!(
        world.node::<Spy>(b).host.bytes_delivered(conn),
        2 * 4 * 1460
    );
    // `a` scanned on every line while the first message was in flight —
    // one line past the retransmission's ACK, which finds the pipe empty
    // — and once for the second message; `b` never sent data.
    let mut expected: Vec<SimTime> = (1..=22).map(|k| SimTime(k * SCAN.1.as_ps())).collect();
    expected.push(SimTime::from_micros(15_250));
    assert_eq!(world.node::<Spy>(a).scans(), expected);
    assert_eq!(world.node::<Spy>(b).scans(), vec![]);
}

/// A connection's kernel delays are keyed on the connection and its
/// message, not drawn from a stream every connection of the world
/// shares: `a`'s ping RTTs on connection 0 are the same whether or not
/// connection 1 carries pings the other way on the same two hosts.
#[test]
fn a_connections_kernel_delays_do_not_depend_on_other_connections() {
    let run = |other_busy: bool| {
        let mut world = World::new(13);
        let (mut a, mut b) = (host(0), host(1));
        let ping = |start_us| TcpApp::Pinger {
            payload: 100,
            interval: SimTime::from_micros(100),
            start_at: SimTime::from_micros(start_us),
        };
        let echo = TcpApp::Echo { reply_len: 100 };
        a.add_conn(IP_B, 40_000, 40_001, ping(10));
        b.add_conn(IP_A, 40_001, 40_000, echo);
        let (b_app, a_app) = if other_busy {
            (ping(60), echo)
        } else {
            (TcpApp::None, TcpApp::None)
        };
        b.add_conn(IP_A, 41_000, 41_001, b_app);
        a.add_conn(IP_B, 41_001, 41_000, a_app);
        let a = world.add_node(Box::new(a));
        let b = world.add_node(Box::new(b));
        world.connect(a, PortId(0), b, PortId(0), LinkSpec::server_40g());
        world.run_until(SimTime::from_millis(5));
        let rtts = |n| world.node::<TcpHost>(n).stats.rtt_samples_ps.clone();
        (rtts(a), rtts(b))
    };
    let (quiet, none) = run(false);
    let (busy, other) = run(true);
    assert!(
        none.is_empty() && other.len() > 40,
        "connection 1 must carry pings"
    );
    assert!(quiet.len() > 40);
    assert_eq!(
        quiet, busy,
        "connection 0's RTTs moved with connection 1's traffic"
    );
}
