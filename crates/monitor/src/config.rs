//! Configuration management and monitoring (§5.1): "We have a
//! configuration monitoring service to check if the running
//! configurations of the switches and the servers are the same as their
//! desired configurations."
//!
//! The §6.2 incident is the motivating case: a newly introduced switch
//! type silently shipped with dynamic-buffer α = 1/64 where the fleet
//! standard was 1/16, and thousands of servers saw pause storms at
//! midnight. A desired-vs-running check of exactly the fields below would
//! have flagged it before traffic did. The check itself walks a running
//! fabric (`Cluster::config_deviations` in the core crate); this module
//! names what it reports.

/// An RDMA-relevant configuration field of a switch or an RDMA host,
/// §5.1's "global part" plus the safety features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigField {
    /// Switch or RDMA host: DSCP- or VLAN-based PFC — how the switch
    /// classifies, or how the host tags.
    PfcMode,
    /// Switch: which of the 8 classes are lossless.
    LosslessClasses,
    /// Switch: dynamic-buffer α (or static thresholds).
    Alpha,
    /// Switch: the PFC-storm watchdog.
    Watchdog,
    /// Switch: dropping lossless packets on incomplete ARP (§4.2 fix).
    ArpFix,
    /// RDMA host: the congestion-control algorithm.
    Cc,
    /// RDMA host: the NIC's loss-recovery scheme.
    LossRecovery,
    /// RDMA host: the NIC-side storm watchdog.
    NicWatchdog,
}

/// One detected deviation between desired and running configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigDeviation {
    /// Device name.
    pub device: String,
    /// Field that deviates.
    pub field: ConfigField,
}
