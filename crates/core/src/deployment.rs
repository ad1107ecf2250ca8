//! Staged deployment (§6.1): "In the third step, we enabled RDMA in
//! production networks at ToR level only. In the fourth step, we enabled
//! PFC at the Podset level … In the last step, we enabled PFC up to the
//! Spine switches."

/// How far up the fabric PFC (lossless classes) is enabled. RDMA traffic
/// crossing a tier without PFC is treated as lossy there — the risk the
/// staged rollout controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeploymentStage {
    /// PFC on no tier: every class is lossy everywhere (the best-effort
    /// arm of Figures 2 and 7, before RDMA's rollout began).
    Off,
    /// PFC on ToR switches only: RDMA is safe within a rack.
    TorOnly,
    /// PFC on ToR and Leaf switches: safe within a podset.
    Podset,
    /// PFC everywhere up to the Spine layer: the paper's end state,
    /// RDMA for all intra-DC communication under one spine layer.
    Spine,
}

impl DeploymentStage {
    /// Is PFC enabled on ToR switches at this stage?
    pub fn tor(self) -> bool {
        self >= DeploymentStage::TorOnly
    }

    /// Is PFC enabled on Leaf switches at this stage?
    pub fn leaf(self) -> bool {
        self >= DeploymentStage::Podset
    }

    /// Is PFC enabled on Spine switches at this stage?
    pub fn spine(self) -> bool {
        self >= DeploymentStage::Spine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_are_monotone() {
        assert!(!DeploymentStage::Off.tor());
        assert!(!DeploymentStage::Off.leaf());
        assert!(!DeploymentStage::Off.spine());
        assert!(DeploymentStage::TorOnly.tor());
        assert!(!DeploymentStage::TorOnly.leaf());
        assert!(!DeploymentStage::TorOnly.spine());
        assert!(DeploymentStage::Podset.leaf());
        assert!(!DeploymentStage::Podset.spine());
        assert!(DeploymentStage::Spine.spine());
    }
}
