//! The RNIC host model: verbs, DCQCN, PFC at the host, and the NIC bugs
//! the paper fought.
//!
//! "NICs are the key to make RDMA/RoCEv2 work. Most of the RDMA/RoCEv2
//! bugs we ran into were caused by the NICs instead of the switches"
//! (§6.3). Accordingly this crate models the NIC with its warts:
//!
//! * **Transmit path** ([`host`]): per-QP [`rocescale_transport`]
//!   endpoints, DCQCN reaction-point pacing per QP, PFC pause reaction at
//!   the host egress, and sequential IP IDs (the property that made the
//!   §4.1 drop filter deterministic).
//! * **Receive pipeline** ([`host`]): a finite receive buffer drained by a
//!   processing pipeline whose speed depends on the **Memory Translation
//!   Table** cache ([`mtt`]). The MTT holds only 2K entries; with 4 KB
//!   pages that covers 8 MB — misses stall the pipeline, the buffer
//!   crosses its XOFF threshold, and the host itself emits pause frames:
//!   the §4.4 *slow-receiver symptom*. The mitigation is 2 MB pages.
//! * **The storm bug** ([`host::TOK_INJECT_STORM`]): "a bug in the
//!   NIC's receiving pipeline … the NIC's receiving buffer filled, and the
//!   NIC began to send out pause frames all the time" (§4.3). The
//!   NIC-side watchdog — a micro-controller that disables pause generation
//!   once the pipeline has been stopped too long — is implemented per the
//!   paper, including its asymmetry: unlike the switch watchdog it never
//!   re-enables, because a stormed NIC "never comes back".
//! * **Built-in applications** ([`host::QpApp`], [`host::HostApp`]): the
//!   workload generators the experiments need — saturating senders
//!   (Figure 7), echo responders and fan-out queriers (the incast service
//!   of Figure 6), and RDMA Pingmesh probers (§5.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod mtt;

pub use host::{HostApp, HostStats, NicConfig, QpApp, QpHandle, RdmaHost, RxConfig};
pub use mtt::{MttCache, MttConfig};
