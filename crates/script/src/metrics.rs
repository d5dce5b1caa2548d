//! Script-runtime instrumentation: the cached metric handles a
//! [`crate::engine::ScriptEngine`] reports through when a
//! [`gamedb_metrics::MetricsRegistry`] is attached.

use gamedb_metrics::{Counter, Histogram, MetricsRegistry, LATENCY_US_BUCKETS, SIZE_BUCKETS};

/// Cached handles for one engine. Catalog in ARCHITECTURE.md
/// § Observability.
#[derive(Debug, Clone)]
pub(crate) struct ScriptMetrics {
    /// `script.ticks`: whole-world scripted ticks executed.
    pub ticks: Counter,
    /// `script.scripts_run`: per-entity script executions across all
    /// ticks.
    pub scripts_run: Counter,
    /// `script.events`: events emitted by scripts.
    pub events: Counter,
    /// `script.vm_instrs`: bytecode instructions retired by the VM, one
    /// per instruction per lane (entity) it ran for.
    pub vm_instrs: Counter,
    /// `script.vm_dispatches`: instructions the VM issued, each to one
    /// group of lanes; `vm_instrs ÷ vm_dispatches` is the mean active
    /// lanes per dispatch.
    pub vm_dispatches: Counter,
    /// `script.vm_compiles`: scripts lowered to bytecode (every script
    /// of the library on each load, plus schema-change recompiles).
    pub vm_compiles: Counter,
    /// `script.probes`: neighbour loops (`foreach`, aggregates) the VM
    /// began.
    pub probes: Counter,
    /// `script.probe_rows`: candidates those loops were handed.
    pub probe_rows: Counter,
    /// `script.tick_effects`: effect-buffer size per tick — the batch
    /// the tick commits through `World::apply_batch`.
    pub tick_effects: Histogram,
    /// `script.vm_us`: per tick, running every bound script (dispatch +
    /// neighbour probes + effect pushes).
    pub vm_us: Histogram,
    /// `script.apply_us`: per tick, `EffectBuffer::apply` — the effect
    /// merge and its batch commit.
    pub apply_us: Histogram,
}

impl ScriptMetrics {
    pub fn new(registry: &MetricsRegistry) -> Self {
        ScriptMetrics {
            ticks: registry.counter("script.ticks"),
            scripts_run: registry.counter("script.scripts_run"),
            events: registry.counter("script.events"),
            vm_instrs: registry.counter("script.vm_instrs"),
            vm_dispatches: registry.counter("script.vm_dispatches"),
            vm_compiles: registry.counter("script.vm_compiles"),
            probes: registry.counter("script.probes"),
            probe_rows: registry.counter("script.probe_rows"),
            tick_effects: registry.histogram("script.tick_effects", SIZE_BUCKETS),
            vm_us: registry.histogram("script.vm_us", LATENCY_US_BUCKETS),
            apply_us: registry.histogram("script.apply_us", LATENCY_US_BUCKETS),
        }
    }
}
