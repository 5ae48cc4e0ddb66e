//! The instruction-set tier the host kernels run at.

/// A tier the host kernels ([`crate::gemm`] and the graph-operator edge
/// loops of `ugrapher-core`) are compiled for. Each kernel is compiled once
/// per tier from one source, and each call runs the widest tier this CPU
/// supports; the tiers produce the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostIsa {
    /// The build target's baseline features (SSE2 on x86-64: four `f32`
    /// lanes per vector).
    Portable,
    /// x86-64 with AVX2: eight `f32` lanes per vector.
    Avx2,
}

impl HostIsa {
    /// The tier the host kernels dispatch to on this CPU. std caches the
    /// CPU's answer, so a call costs one relaxed load.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Self::Avx2;
        }
        Self::Portable
    }

    /// The tier's lower-case name, as benchmark results record it.
    pub fn name(self) -> &'static str {
        match self {
            Self::Portable => "portable",
            Self::Avx2 => "avx2",
        }
    }
}
