//! Shared-buffer Ethernet switch model with PFC, the heart of the paper's
//! substrate.
//!
//! The model reproduces the behaviours the paper's mechanisms live and die
//! by:
//!
//! * **Ingress priority-group accounting** ([`buffer`]): in the paper's
//!   shared-buffer ASICs "an ingress queue is implemented simply as a
//!   counter — all packets share a common buffer pool" (§2). A packet
//!   counts against its (ingress port, priority group) pair from admission
//!   until it finishes leaving the egress port. XOFF pause frames fire when
//!   the counter crosses a threshold — either a static one or the dynamic
//!   `α × (unallocated shared buffer)` rule whose misconfiguration caused
//!   the §6.2 incident — and XON resumes below a lower threshold.
//!   Per-(port, PG) **headroom** absorbs the in-flight packets of the
//!   pause-propagation "gray period"; a correctly configured lossless
//!   class never drops, which experiments assert.
//! * **Classification** ([`config`]): VLAN-based (PCP bits) or DSCP-based
//!   (§3) priority → priority-group mapping, with trunk-vs-access port
//!   semantics so the PXE-boot failure of VLAN-based PFC is reproducible.
//! * **Forwarding** ([`tables`], [`routing`]): L3 longest-prefix match
//!   with five-tuple ECMP, plus the L2 tail at the ToR — ARP table
//!   (≈4 h timeout) and MAC table (≈5 min timeout) with the *flooding*
//!   behaviour on incomplete entries that creates the §4.2 deadlock, and
//!   the paper's fix (drop lossless packets on incomplete ARP).
//! * **Egress scheduling** ([`switch`]): eight per-priority queues with
//!   deficit-weighted round-robin, per-priority PFC pause state, a
//!   control path for pause frames that bypasses data queues, and
//!   DCQCN-CP ECN marking on egress queue depth.
//! * **Safety** ([`switch`]): the switch-side PFC storm watchdog (§4.3)
//!   that disables lossless mode on a server-facing port receiving
//!   continuous pauses while its queue cannot drain, and re-enables it
//!   after the pauses disappear.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod config;
pub mod routing;
pub mod switch;
pub mod tables;

pub use buffer::{AdmitOutcome, SharedBuffer};
pub use config::{BufferConfig, PortRole, SwitchConfig, WatchdogConfig, RDMA_CLASSES};
pub use routing::{EcmpGroup, RouteTable};
pub use switch::{AdminAction, DropReason, FlowCacheStats, Switch, SwitchStats};
pub use tables::{ArpTable, MacTable};
