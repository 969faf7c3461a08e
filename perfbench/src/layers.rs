//! Layer probes. Every layer is timed from outside, around calls into its
//! public functions: [`TimedEngine`] wraps the `ImmEngine` calls `run_imm`
//! makes, [`ProbedResampler`] wraps the `Resampler` calls the streaming
//! engine makes, and [`GpuTotals`] reads the metrics sink the benchmark
//! attaches to the simulated device. Nothing inside the program changes.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use eim_core::DeviceResampler;
use eim_gpusim::{Device, MetricsRegistry};
use eim_graph::{Graph, VertexId};
use eim_imm::{
    EngineError, EngineManifest, Eviction, ImmEngine, RecoveryPolicy, RecoveryReport, Resampler,
    RrrSets, Selection,
};

/// Host time and simulated time spent in the engine's sampling and
/// selection calls during one answer.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineLayers {
    pub sample_s: f64,
    pub sample_calls: u64,
    pub sample_sim_us: f64,
    pub select_s: f64,
    pub select_calls: u64,
    pub select_sim_us: f64,
}

/// An [`ImmEngine`] that forwards every call to `inner` and times
/// `extend_to` (sampling plus store ingest) and `select`.
pub struct TimedEngine<E> {
    pub inner: E,
    pub layers: EngineLayers,
}

impl<E: ImmEngine> TimedEngine<E> {
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            layers: EngineLayers::default(),
        }
    }
}

impl<E: ImmEngine> ImmEngine for TimedEngine<E> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn extend_to(&mut self, target: usize) -> Result<(), EngineError> {
        let sim0 = self.inner.elapsed_us();
        let t = Instant::now();
        let result = self.inner.extend_to(target);
        self.layers.sample_s += t.elapsed().as_secs_f64();
        self.layers.sample_calls += 1;
        self.layers.sample_sim_us += self.inner.elapsed_us() - sim0;
        result
    }

    fn select(&mut self, k: usize) -> Selection {
        let sim0 = self.inner.elapsed_us();
        let t = Instant::now();
        let selection = self.inner.select(k);
        self.layers.select_s += t.elapsed().as_secs_f64();
        self.layers.select_calls += 1;
        self.layers.select_sim_us += self.inner.elapsed_us() - sim0;
        selection
    }

    fn store(&self) -> &dyn RrrSets {
        self.inner.store()
    }

    fn logical_sets(&self) -> usize {
        self.inner.logical_sets()
    }

    fn elapsed_us(&self) -> f64 {
        self.inner.elapsed_us()
    }

    fn advance_time(&mut self, us: f64) {
        self.inner.advance_time(us)
    }

    fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.inner.set_recovery_policy(policy)
    }

    fn recovery_report(&self) -> RecoveryReport {
        self.inner.recovery_report()
    }

    fn evict_lost_devices(&mut self) -> Result<Option<Eviction>, EngineError> {
        self.inner.evict_lost_devices()
    }

    fn checkpoint_manifest(&self) -> EngineManifest {
        self.inner.checkpoint_manifest()
    }

    fn restore_manifest(&mut self, manifest: &EngineManifest) -> Result<(), EngineError> {
        self.inner.restore_manifest(manifest)
    }
}

/// Cumulative resampler activity. `sim_us` is always kept (it is the
/// stream's simulated answer time); the host timings only when traced.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResampleLayers {
    pub sample_s: f64,
    pub sample_calls: u64,
    pub sets: u64,
    pub refresh_s: f64,
    pub sim_us: f64,
}

/// A [`Resampler`] around [`DeviceResampler`] that reports into a shared
/// [`ResampleLayers`]; the streaming engine owns the resampler, so the
/// benchmark reads the tallies through the shared handle.
pub struct ProbedResampler {
    inner: DeviceResampler,
    layers: Rc<RefCell<ResampleLayers>>,
    timed: bool,
}

impl ProbedResampler {
    pub fn new(inner: DeviceResampler, layers: Rc<RefCell<ResampleLayers>>, timed: bool) -> Self {
        Self {
            inner,
            layers,
            timed,
        }
    }
}

impl Resampler for ProbedResampler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn graph_changed(
        &mut self,
        graph: &Graph,
        changed_heads: &[VertexId],
    ) -> Result<(), EngineError> {
        if !self.timed {
            return self.inner.graph_changed(graph, changed_heads);
        }
        let t = Instant::now();
        let result = self.inner.graph_changed(graph, changed_heads);
        self.layers.borrow_mut().refresh_s += t.elapsed().as_secs_f64();
        result
    }

    fn sample(
        &mut self,
        graph: &Graph,
        indices: &[u64],
    ) -> Result<Vec<(VertexId, Vec<VertexId>)>, EngineError> {
        let sim0 = self.inner.device().clock_us();
        let t = self.timed.then(Instant::now);
        let result = self.inner.sample(graph, indices);
        let mut layers = self.layers.borrow_mut();
        if let Some(t) = t {
            layers.sample_s += t.elapsed().as_secs_f64();
        }
        layers.sample_calls += 1;
        layers.sets += indices.len() as u64;
        layers.sim_us += self.inner.device().clock_us() - sim0;
        result
    }
}

/// Simulated-device counters read from the attached metrics registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GpuTotals {
    pub kernel_launches: u64,
    pub kernel_cycles: u64,
    pub transfer_bytes: u64,
    pub mem_peak_bytes: u64,
}

impl GpuTotals {
    /// Totals over every series in `registry` (`eim_kernel_*` profiles,
    /// `eim_transfer_bytes_total`, `eim_device_mem_peak_bytes`).
    pub fn read(registry: &MetricsRegistry) -> Self {
        let mut totals = Self::default();
        for (_, profile) in registry.kernel_profiles() {
            totals.kernel_launches += profile.launches;
            totals.kernel_cycles += profile.cycles;
        }
        let json = registry.to_json();
        let series = |family: &str, name: &str| -> Vec<u64> {
            json[family]
                .as_object()
                .map(|m| {
                    m.iter()
                        .filter(|(k, _)| k.split('{').next() == Some(name))
                        .filter_map(|(_, v)| v.as_u64())
                        .collect()
                })
                .unwrap_or_default()
        };
        totals.transfer_bytes = series("counters", "eim_transfer_bytes_total").iter().sum();
        totals.mem_peak_bytes = series("gauges", "eim_device_mem_peak_bytes")
            .into_iter()
            .max()
            .unwrap_or(0);
        totals
    }

    /// Counts accumulated since `earlier`; the memory peak stays absolute.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            kernel_launches: self.kernel_launches - earlier.kernel_launches,
            kernel_cycles: self.kernel_cycles - earlier.kernel_cycles,
            transfer_bytes: self.transfer_bytes - earlier.transfer_bytes,
            mem_peak_bytes: self.mem_peak_bytes,
        }
    }
}

/// A device for one answer: `rtx_a6000`, with a fresh metrics registry
/// attached when traced.
pub fn device(registry: Option<&MetricsRegistry>, engine: &str) -> Device {
    let spec = eim_gpusim::DeviceSpec::rtx_a6000();
    match registry {
        Some(r) => Device::with_run_trace(
            spec,
            eim_gpusim::RunTrace::disabled().with_metrics(r.sink().with_engine(engine)),
        ),
        None => Device::new(spec),
    }
}
