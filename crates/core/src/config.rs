//! Security configuration: which library, key size, nonce policy, and
//! how crypto time is charged to the virtual clock.

use empi_aead::nonce::NoncePolicy;
use empi_aead::profile::{CompilerBuild, CryptoLibrary, KeySize};
use empi_keys::KeyPlaneConfig;
use empi_netsim::{FaultRates, NetModel, VDur};
use empi_pipeline::PipelineConfig;

/// How cryptographic work is charged to the simulation clock.
///
/// Real crypto always executes; its virtual cost comes from the model
/// (DESIGN.md §2, "wall-clock timing" substitution), never from the
/// host clock, so every run of a configuration reports the same times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingMode {
    /// Charge the calibrated per-library cost digitized from the paper's
    /// Figs. 2/9 for this compiler build — pins the crypto-to-network
    /// speed ratio to the paper's testbed regardless of the host CPU.
    Calibrated(CompilerBuild),
}

impl TimingMode {
    /// The build the paper pairs with each interconnect: gcc 4.8.5 for
    /// the Ethernet/MPICH stack, the MVAPICH2-2.3 toolchain for
    /// InfiniBand.
    pub fn calibrated_for(model: &NetModel) -> TimingMode {
        if model.name.contains("MVAPICH") {
            TimingMode::Calibrated(CompilerBuild::Mvapich23)
        } else {
            TimingMode::Calibrated(CompilerBuild::Gcc485)
        }
    }
}

/// Deterministic fault injection: a seed plus per-event rates (see
/// [`empi_netsim::FaultPlan`]). With a plan installed, every sealed
/// frame leaving this rank draws a replayable verdict — bit-flip,
/// truncation, drop, duplication or latency jitter — and a seeded
/// subset of the crypto workers runs degraded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master seed; `(seed, rates)` fully determines every fault.
    pub seed: u64,
    /// Per-event injection probabilities and shape parameters.
    pub rates: FaultRates,
}

/// Retransmit/recovery (ARQ) tuning for [`crate::SecureComm`].
///
/// The protocol is NACK-only: at a fault rate of zero it adds no wire
/// frames at all. On an authentication/length/protocol failure the
/// receiver sends a typed NACK; the sender answers from a bounded
/// retained-frame buffer; repair round `a` is awaited for
/// `timeout * 2^a` of virtual time, capped at `8 * timeout`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitConfig {
    /// NACK rounds per message before the receiver gives up with
    /// [`crate::Error::DeliveryFailed`] / [`crate::Error::Timeout`].
    pub max_retries: u32,
    /// Base repair-wait window (virtual time) for the backoff schedule.
    pub timeout: VDur,
    /// Sent messages retained for repair (FIFO evict; a NACK for an
    /// evicted message is answered with an abort).
    pub buffer_msgs: usize,
}

impl RetransmitConfig {
    /// Default retained-message buffer depth.
    pub const DEFAULT_BUFFER_MSGS: usize = 32;
}

/// The key the paper hardcodes in its prototypes ("the encryption key
/// was hardcoded in the source code"; key distribution is future work).
pub const HARDCODED_KEY: [u8; 32] = [
    0x60, 0x3d, 0xeb, 0x10, 0x15, 0xca, 0x71, 0xbe, 0x2b, 0x73, 0xae, 0xf0, 0x85, 0x7d, 0x77,
    0x81, 0x1f, 0x35, 0x2c, 0x07, 0x3b, 0x61, 0x08, 0xd7, 0x2d, 0x98, 0x10, 0xa3, 0x09, 0x14,
    0xdf, 0xf4,
];

/// Full security configuration of a [`crate::SecureComm`].
#[derive(Debug, Clone)]
pub struct SecurityConfig {
    /// Which of the four libraries provides AES-GCM.
    pub library: CryptoLibrary,
    /// 128- or 256-bit keys (the paper reports 256-bit results).
    pub key_size: KeySize,
    /// Shared symmetric key (only the first `key_size.bytes()` are used).
    pub key: [u8; 32],
    /// Fresh-nonce policy (the paper uses `RAND_bytes(12)` per message).
    pub nonce_policy: NoncePolicy,
    /// Crypto cost model.
    pub timing: TimingMode,
    /// Chunked multi-core crypto pipelining (off by default; the
    /// sequential paper path is the reference behavior).
    pub pipeline: PipelineConfig,
    /// Deterministic fault injection (off by default).
    pub faults: Option<FaultConfig>,
    /// NACK-driven retransmit/recovery layer (off by default; without
    /// it, injected faults surface as typed errors to the caller).
    pub retransmit: Option<RetransmitConfig>,
    /// Zero-copy hot path: source wire buffers from the engine's
    /// shared `BufferPool` and reclaim them after delivery. Changes
    /// only where buffers come from — wire bytes stay bit-identical to
    /// the unpooled path. Off by default.
    pub pool: bool,
    /// In-band key lifecycle (`empi_keys`): a seeded group handshake
    /// at startup replaces the hardcoded cluster key with a fresh
    /// session master (the configured key is demoted to a bootstrap
    /// KEK), optionally rotating group epochs on a virtual-time
    /// schedule. Changes the wire format (records grow an
    /// authenticated epoch prefix), so all ranks must agree. Off by
    /// default (the paper's hardcoded-key setup).
    pub key_plane: Option<KeyPlaneConfig>,
}

impl SecurityConfig {
    /// The paper's configuration for `library`: AES-256-GCM, hardcoded
    /// key, random nonces, calibrated gcc-build timing.
    pub fn new(library: CryptoLibrary) -> Self {
        SecurityConfig {
            library,
            key_size: KeySize::Aes256,
            key: HARDCODED_KEY,
            nonce_policy: NoncePolicy::Random,
            timing: TimingMode::Calibrated(CompilerBuild::Gcc485),
            pipeline: PipelineConfig::disabled(),
            faults: None,
            retransmit: None,
            pool: false,
            key_plane: None,
        }
    }

    /// Select the timing mode.
    pub fn with_timing(mut self, timing: TimingMode) -> Self {
        self.timing = timing;
        self
    }

    /// Select the key size.
    pub fn with_key_size(mut self, key_size: KeySize) -> Self {
        self.key_size = key_size;
        self
    }

    /// Replace the shared key.
    pub fn with_key(mut self, key: [u8; 32]) -> Self {
        self.key = key;
        self
    }

    /// Configure the chunked crypto pipeline (see `empi_pipeline`).
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Install a seeded fault plan: sealed frames leaving this rank
    /// draw deterministic corruption/drop/duplication/jitter verdicts,
    /// and a seeded subset of crypto workers runs degraded.
    pub fn with_faults(mut self, seed: u64, rates: FaultRates) -> Self {
        self.faults = Some(FaultConfig { seed, rates });
        self
    }

    /// Enable the NACK-driven retransmit layer with `max_retries`
    /// repair rounds and a base wait window of `timeout` (virtual
    /// time); the retained-message buffer gets its default depth.
    pub fn with_retransmit(mut self, max_retries: u32, timeout: VDur) -> Self {
        self.retransmit = Some(RetransmitConfig {
            max_retries,
            timeout,
            buffer_msgs: RetransmitConfig::DEFAULT_BUFFER_MSGS,
        });
        self
    }

    /// Override the retained-message buffer depth of an already-enabled
    /// retransmit layer (no-op when retransmit is off).
    pub fn with_retransmit_buffer(mut self, buffer_msgs: usize) -> Self {
        if let Some(rc) = &mut self.retransmit {
            rc.buffer_msgs = buffer_msgs.max(1);
        }
        self
    }

    /// Toggle the pooled zero-copy hot path: one switch for the plain
    /// records and the chunked frames alike.
    pub fn with_buffer_pool(mut self, pooled: bool) -> Self {
        self.pool = pooled;
        self
    }

    /// Enable the in-band key lifecycle (see
    /// [`SecurityConfig::key_plane`]). Every rank of the world must
    /// carry the same [`KeyPlaneConfig`]: the handshake seed and
    /// rotation schedule shape the wire bytes.
    pub fn with_key_plane(mut self, key_plane: KeyPlaneConfig) -> Self {
        self.key_plane = Some(key_plane);
        self
    }

    /// Deterministic-nonce test mode: nonces come from a PRNG seeded
    /// with `seed`, so traced wire bytes reproduce run-to-run. Never
    /// for production — a known seed makes every nonce predictable.
    pub fn with_deterministic_nonces(mut self, seed: u64) -> Self {
        self.nonce_policy = NoncePolicy::Seeded { seed };
        self
    }

    /// The active key bytes.
    pub fn key_bytes(&self) -> &[u8] {
        &self.key[..self.key_size.bytes()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SecurityConfig::new(CryptoLibrary::BoringSsl);
        assert_eq!(c.key_size, KeySize::Aes256);
        assert_eq!(c.key_bytes().len(), 32);
        assert_eq!(c.nonce_policy, NoncePolicy::Random);
        assert!(matches!(c.timing, TimingMode::Calibrated(CompilerBuild::Gcc485)));
    }

    #[test]
    fn calibrated_build_follows_interconnect() {
        assert_eq!(
            TimingMode::calibrated_for(&NetModel::ethernet_10g()),
            TimingMode::Calibrated(CompilerBuild::Gcc485)
        );
        assert_eq!(
            TimingMode::calibrated_for(&NetModel::infiniband_40g()),
            TimingMode::Calibrated(CompilerBuild::Mvapich23)
        );
    }

    #[test]
    fn pipeline_and_seeded_nonce_builders() {
        let c = SecurityConfig::new(CryptoLibrary::BoringSsl);
        assert!(!c.pipeline.enabled, "pipelining must default off");
        let c = c
            .with_pipeline(PipelineConfig::enabled().with_chunk_size(1 << 15).with_workers(8))
            .with_deterministic_nonces(1234);
        assert!(c.pipeline.enabled);
        assert_eq!(c.pipeline.chunk_size, 1 << 15);
        assert_eq!(c.pipeline.workers, 8);
        assert_eq!(c.nonce_policy, NoncePolicy::Seeded { seed: 1234 });
    }

    #[test]
    fn fault_and_retransmit_builders() {
        let c = SecurityConfig::new(CryptoLibrary::BoringSsl);
        assert!(c.faults.is_none() && c.retransmit.is_none(), "chaos off by default");
        let c = c
            .with_faults(77, FaultRates::uniform(0.05))
            .with_retransmit(4, VDur::from_micros(200))
            .with_retransmit_buffer(8);
        let f = c.faults.unwrap();
        assert_eq!(f.seed, 77);
        assert_eq!(f.rates.bit_flip, 0.05);
        let r = c.retransmit.unwrap();
        assert_eq!(r.max_retries, 4);
        assert_eq!(r.timeout, VDur::from_micros(200));
        assert_eq!(r.buffer_msgs, 8);
        // Buffer override without retransmit enabled is a no-op.
        let plain = SecurityConfig::new(CryptoLibrary::BoringSsl).with_retransmit_buffer(3);
        assert!(plain.retransmit.is_none());
    }

    #[test]
    fn pool_builder_is_independent_of_pipeline_order() {
        let c = SecurityConfig::new(CryptoLibrary::BoringSsl);
        assert!(!c.pool, "pool off by default");
        // Pool first, pipeline second: the toggle must survive.
        let c = SecurityConfig::new(CryptoLibrary::BoringSsl)
            .with_buffer_pool(true)
            .with_pipeline(PipelineConfig::enabled());
        assert!(c.pool && c.pipeline.enabled);
        // Pipeline first, pool second.
        let c = SecurityConfig::new(CryptoLibrary::BoringSsl)
            .with_pipeline(PipelineConfig::enabled())
            .with_buffer_pool(true);
        assert!(c.pool && c.pipeline.enabled);
    }

    #[test]
    fn key_plane_builder() {
        let c = SecurityConfig::new(CryptoLibrary::BoringSsl);
        assert!(c.key_plane.is_none(), "key plane off by default");
        let c = c.with_key_plane(
            KeyPlaneConfig::new(42).with_rotation(VDur::from_micros(500)),
        );
        let kp = c.key_plane.unwrap();
        assert_eq!(kp.handshake_seed, 42);
        assert_eq!(kp.rotate_every, Some(VDur::from_micros(500)));
    }

    #[test]
    fn key_size_slices_key() {
        let c = SecurityConfig::new(CryptoLibrary::OpenSsl).with_key_size(KeySize::Aes128);
        assert_eq!(c.key_bytes().len(), 16);
    }
}
