//! Whole-workflow static planning (`moteur plan`).
//!
//! Abstract-interprets the processor graph *before* enactment:
//! per-port cardinality intervals ([`interval`]) are combined with
//! declared item sizes into per-edge transfer-volume bounds, the
//! eq. 1–4 makespan closed forms gain a data-transfer term, and a
//! greedy min-cut-style partitioner groups services into site fragments
//! that minimize the bytes the central enactor must route — the
//! scalability ceiling ROADMAP item 3 is about.
//!
//! The analysis is deliberately total: cycles, merged streams and
//! missing declarations degrade to wider intervals or default sizes,
//! never to an error, so `moteur plan` always has something to report.
//! Trustworthiness is checked end-to-end by `moteur-bench plan`, which
//! asserts every static byte interval contains the bytes the enactment
//! timeline actually recorded.

#![warn(missing_docs)]

pub mod interval;

use crate::graph::{Link, ProcessorKind, Workflow};
use crate::model::TimeMatrix;
use crate::obs::json::{array, JsonObject};
use crate::service::ServiceBinding;
use interval::{output_intervals, CardInterval, SourceSizes};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Item size assumed when neither the producer nor the consumer
/// declares one (matches [`crate::service::ServiceProfile::output_size`]).
pub const DEFAULT_ITEM_BYTES: u64 = 64 * 1024;

/// Knobs of the static analysis.
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Assumed per-source input-set sizes.
    pub sizes: SourceSizes,
    /// Per-job grid latency charged by the makespan predictor (s).
    pub overhead: f64,
    /// Link bandwidth the transfer term divides by (bytes/s) — the
    /// simulator's 2006-WAN default.
    pub bandwidth: f64,
    /// Invocation-count bound above which M080 calls a cardinality
    /// explosion.
    pub explosion_cap: u64,
    /// Largest number of services one site fragment may hold.
    pub max_fragment: usize,
    /// Fallback per-item size when nothing is declared.
    pub default_item_bytes: u64,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            sizes: SourceSizes::default(),
            overhead: 300.0,
            bandwidth: 2.0e6,
            explosion_cap: 1_000_000,
            max_fragment: 4,
            default_item_bytes: DEFAULT_ITEM_BYTES,
        }
    }
}

/// Static transfer estimate for one data link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgePlan {
    /// Producer processor name.
    pub from: String,
    /// Producer output port name.
    pub from_port: String,
    /// Consumer processor name.
    pub to: String,
    /// Consumer input port name.
    pub to_port: String,
    /// Bound on the number of items transferred over the edge in one
    /// campaign.
    pub items: CardInterval,
    /// Per-item size used for the byte bound.
    pub item_bytes: u64,
    /// Bound on the bytes transferred (`items × item_bytes`).
    pub bytes: CardInterval,
    /// Does the edge reach a grid job's input (consumer is a service)?
    /// Edges into sinks are delivered enactor-internally and produce no
    /// grid transfer.
    pub grid: bool,
}

/// One group of services co-located on a site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// Service processor names in workflow order.
    pub processors: Vec<String>,
}

/// The greedy partition and its byte accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Site fragments, largest first.
    pub fragments: Vec<Fragment>,
    /// Bytes the enactor still routes with the partition applied
    /// (cross-fragment edges plus source-fed edges).
    pub cut_bytes: CardInterval,
    /// Bytes the enactor routes centrally (every grid edge).
    pub total_bytes: CardInterval,
}

/// Everything `moteur plan` reports about one workflow.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Workflow name.
    pub workflow: String,
    /// Assumed input-set size (the default source sizing).
    pub n_data: u64,
    /// Per-job overhead the makespans charge (s).
    pub overhead: f64,
    /// Link bandwidth the transfer term uses (bytes/s).
    pub bandwidth: f64,
    /// Output-stream interval per processor, in workflow order.
    pub intervals: Vec<(String, CardInterval)>,
    /// Per-edge transfer estimates, in link order.
    pub edges: Vec<EdgePlan>,
    /// Greedy site partition minimizing enactor-routed bytes.
    pub partition: Partition,
    /// Eq. 1–4 makespan (Σ_DSP) with a transfer term charging *every*
    /// grid edge through the central enactor; `None` when the workflow
    /// is cyclic or has no declared cost models.
    pub makespan_centralized: Option<f64>,
    /// Same predictor charging only the partition's cut edges.
    pub makespan_partitioned: Option<f64>,
}

/// Per-edge transfer bounds only — the cost-model-free part of the
/// analysis. The lint rules (M080–M085) use this instead of
/// [`analyze`]: weighing edges must not evaluate user cost models,
/// whose closures may only be defined for the enactment's actual
/// `n_data`, not the lint sizing convention.
pub fn transfer_edges(wf: &Workflow, opts: &PlanOptions) -> Vec<EdgePlan> {
    let out = output_intervals(wf, &opts.sizes);
    wf.links
        .iter()
        .map(|l| edge_plan(wf, l, &out, opts))
        .collect()
}

/// Run the whole static analysis.
pub fn analyze(wf: &Workflow, opts: &PlanOptions) -> PlanReport {
    let out = output_intervals(wf, &opts.sizes);
    let edges: Vec<EdgePlan> = wf
        .links
        .iter()
        .map(|l| edge_plan(wf, l, &out, opts))
        .collect();
    let partition = partition(wf, &edges, opts.max_fragment);
    let makespan_centralized = makespan_with_charged(wf, &edges, opts, |_| true);
    let fragment_of = fragment_index(&partition);
    // Sink deliveries pass through the enactor either way; only
    // fragment-internal service edges stop being routed centrally.
    let makespan_partitioned =
        makespan_with_charged(wf, &edges, opts, |e| !e.grid || is_cut(e, &fragment_of));
    PlanReport {
        workflow: wf.name.clone(),
        n_data: opts.sizes.default_n,
        overhead: opts.overhead,
        bandwidth: opts.bandwidth,
        intervals: wf
            .processors
            .iter()
            .zip(&out)
            .map(|(p, iv)| (p.name.clone(), *iv))
            .collect(),
        edges,
        partition,
        makespan_centralized,
        makespan_partitioned,
    }
}

/// Static estimate for one link.
fn edge_plan(wf: &Workflow, link: &Link, out: &[CardInterval], opts: &PlanOptions) -> EdgePlan {
    let producer = wf.processor(link.from.proc);
    let consumer = wf.processor(link.to.proc);
    let producer_out = out[link.from.proc.0];

    let items = match consumer.kind {
        // A sink collects the whole stream (enactor-internal delivery).
        ProcessorKind::Sink => producer_out,
        _ if consumer.synchronization => {
            // A barrier's single invocation fetches each feeder's whole
            // stream.
            producer_out
        }
        _ => {
            let feeders = wf
                .links
                .iter()
                .filter(|l| l.to.proc == link.to.proc && l.to.port == link.to.port)
                .count();
            let invocations = out[link.to.proc.0];
            if feeders > 1 {
                // Each invocation consumes one token from the merged
                // stream; this edge's share is anywhere between nothing
                // and all of what the producer emits (but never more
                // than the invocation count).
                CardInterval {
                    lo: 0,
                    hi: match (invocations.hi, producer_out.hi) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (Some(a), None) | (None, Some(a)) => Some(a),
                        (None, None) => None,
                    },
                }
            } else {
                // One fetch per invocation: dot skips unmatched items,
                // cross re-fetches an item for every tuple it is in.
                invocations
            }
        }
    };

    let item_bytes = edge_item_bytes(wf, link, opts.default_item_bytes);
    EdgePlan {
        from: producer.name.clone(),
        from_port: producer
            .outputs
            .get(link.from.port)
            .cloned()
            .unwrap_or_else(|| "out".to_string()),
        to: consumer.name.clone(),
        to_port: if consumer.kind == ProcessorKind::Sink {
            "in".to_string()
        } else {
            consumer
                .inputs
                .get(link.to.port)
                .cloned()
                .unwrap_or_else(|| "in".to_string())
        },
        items,
        item_bytes,
        bytes: items.scale(item_bytes),
        grid: consumer.kind == ProcessorKind::Service,
    }
}

/// Resolve the per-item size of a link: the producer's declaration
/// wins (source `bytes=`, or a descriptor's `<outputsize>`), then the
/// consumer's `<input bytes=…>` slot, then the default.
fn edge_item_bytes(wf: &Workflow, link: &Link, default: u64) -> u64 {
    let producer = wf.processor(link.from.proc);
    if let Some(b) = producer.item_bytes {
        return b;
    }
    if let Some(ServiceBinding::Descriptor { profile, .. }) = &producer.binding {
        if let Some(port) = producer.outputs.get(link.from.port) {
            // `output_size` has its own default; only trust it when the
            // profile actually declares the slot.
            if profile.output_bytes.iter().any(|(s, _)| s == port) {
                return profile.output_size(port);
            }
        }
    }
    consumer_slot_bytes(wf, link).unwrap_or(default)
}

/// The consumer descriptor's declared `bytes=` for the fed slot.
fn consumer_slot_bytes(wf: &Workflow, link: &Link) -> Option<u64> {
    let consumer = wf.processor(link.to.proc);
    let port = consumer.inputs.get(link.to.port)?;
    if let Some(ServiceBinding::Descriptor { descriptor, .. }) = &consumer.binding {
        return descriptor
            .inputs
            .iter()
            .find(|s| &s.name == port)
            .and_then(|s| s.bytes);
    }
    None
}

// ---------------------------------------------------------------------
// Greedy partitioner
// ---------------------------------------------------------------------

/// Kruskal-style grouping: walk service↔service edges by descending
/// byte bound and union their endpoints while the merged fragment stays
/// within `max_fragment` services — the heaviest flows become
/// site-internal first, which is exactly a greedy min-cut on the
/// enactor's routing load. Sources and sinks stay with the enactor.
pub fn partition(wf: &Workflow, edges: &[EdgePlan], max_fragment: usize) -> Partition {
    let services: Vec<&str> = wf
        .processors
        .iter()
        .filter(|p| p.kind == ProcessorKind::Service)
        .map(|p| p.name.as_str())
        .collect();
    let index: BTreeMap<&str, usize> = services.iter().enumerate().map(|(i, s)| (*s, i)).collect();

    // Union-find over service indices.
    let mut parent: Vec<usize> = (0..services.len()).collect();
    let mut size: Vec<usize> = vec![1; services.len()];
    fn root(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }

    let mut candidates: Vec<(&EdgePlan, usize, usize)> = edges
        .iter()
        .filter_map(|e| {
            let a = *index.get(e.from.as_str())?;
            let b = *index.get(e.to.as_str())?;
            Some((e, a, b))
        })
        .collect();
    // Heaviest first; unbounded edges outrank every finite one. Name
    // order breaks ties so the partition is deterministic.
    candidates.sort_by(|(x, _, _), (y, _, _)| {
        let key = |e: &EdgePlan| (e.bytes.hi.unwrap_or(u64::MAX), e.bytes.lo);
        key(y)
            .cmp(&key(x))
            .then_with(|| (&x.from, &x.to).cmp(&(&y.from, &y.to)))
    });
    let cap = max_fragment.max(1);
    for (_, a, b) in candidates {
        let (ra, rb) = (root(&mut parent, a), root(&mut parent, b));
        if ra != rb && size[ra] + size[rb] <= cap {
            let (big, small) = if size[ra] >= size[rb] {
                (ra, rb)
            } else {
                (rb, ra)
            };
            parent[small] = big;
            size[big] += size[small];
        }
    }

    let mut groups: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (i, s) in services.iter().enumerate() {
        groups
            .entry(root(&mut parent, i))
            .or_default()
            .push((*s).to_string());
    }
    let mut fragments: Vec<Fragment> = groups
        .into_values()
        .map(|processors| Fragment { processors })
        .collect();
    fragments.sort_by(|a, b| {
        b.processors
            .len()
            .cmp(&a.processors.len())
            .then_with(|| a.processors.cmp(&b.processors))
    });

    let partition = Partition {
        fragments,
        cut_bytes: CardInterval::exact(0),
        total_bytes: CardInterval::exact(0),
    };
    let fragment_of = fragment_index(&partition);
    let mut cut = CardInterval::exact(0);
    let mut total = CardInterval::exact(0);
    for e in edges.iter().filter(|e| e.grid) {
        total = total + e.bytes;
        if is_cut(e, &fragment_of) {
            cut = cut + e.bytes;
        }
    }
    Partition {
        cut_bytes: cut,
        total_bytes: total,
        ..partition
    }
}

/// Map each fragmented service name to its fragment index.
fn fragment_index(partition: &Partition) -> BTreeMap<&str, usize> {
    partition
        .fragments
        .iter()
        .enumerate()
        .flat_map(|(i, f)| f.processors.iter().map(move |p| (p.as_str(), i)))
        .collect()
}

/// Is `e` routed by the enactor under the partition? Grid edges fed by
/// a source always are (inputs start at the enactor); service→service
/// edges only when they cross fragments.
fn is_cut(e: &EdgePlan, fragment_of: &BTreeMap<&str, usize>) -> bool {
    if !e.grid {
        return false;
    }
    match (
        fragment_of.get(e.from.as_str()),
        fragment_of.get(e.to.as_str()),
    ) {
        (Some(a), Some(b)) => a != b,
        _ => true,
    }
}

// ---------------------------------------------------------------------
// Makespan with a transfer term
// ---------------------------------------------------------------------

/// Σ_DSP over the eq. 1–4 matrix with each service's per-job time
/// increased by the time to move its charged edges' items across the
/// link (`bytes / bandwidth`). `charged` selects which edges the
/// central enactor still routes.
fn makespan_with_charged(
    wf: &Workflow,
    edges: &[EdgePlan],
    opts: &PlanOptions,
    charged: impl Fn(&EdgePlan) -> bool,
) -> Option<f64> {
    let n_data = usize::try_from(opts.sizes.default_n).ok()?.max(1);
    let per_service = per_job_transfer_bytes(wf, edges, &charged);
    let matrix = TimeMatrix::from_workflow_with(wf, n_data, opts.overhead, |id| {
        per_service
            .get(&wf.processor(id).name)
            .map_or(0.0, |b| *b as f64 / opts.bandwidth)
    })
    .ok()?;
    Some(matrix.sigma_dsp())
}

/// Bytes one job of each service moves over charged edges: one item per
/// charged in-port (the fetch) plus one item per charged out-port (the
/// store). Barrier jobs fetch whole streams in their single invocation,
/// so their in-edges are charged at the stream-byte bound instead.
fn per_job_transfer_bytes(
    wf: &Workflow,
    edges: &[EdgePlan],
    charged: &impl Fn(&EdgePlan) -> bool,
) -> BTreeMap<String, u64> {
    // The finite estimate of a byte bound: the upper bound when it
    // exists, otherwise the guaranteed floor.
    let estimate = |iv: CardInterval| iv.hi.unwrap_or(iv.lo);

    let mut per: BTreeMap<String, u64> = BTreeMap::new();
    for p in wf
        .processors
        .iter()
        .filter(|p| p.kind == ProcessorKind::Service)
    {
        let mut bytes: u64 = 0;
        // Fetch side. Ports are deduplicated: a multi-fed port still
        // delivers one item per invocation, so charge the widest item.
        let mut per_port: BTreeMap<&str, u64> = BTreeMap::new();
        for e in edges.iter().filter(|e| charged(e) && e.to == p.name) {
            if p.synchronization {
                bytes = bytes.saturating_add(estimate(e.bytes));
            } else {
                let slot = per_port.entry(e.to_port.as_str()).or_insert(0);
                *slot = (*slot).max(e.item_bytes);
            }
        }
        bytes = per_port.values().fold(bytes, |b, v| b.saturating_add(*v));
        // Store side: one item per output port that feeds a charged
        // edge, whatever its fan-out (the store to the enactor's
        // storage happens once; consumers fetch from there).
        let mut out_ports: BTreeMap<&str, u64> = BTreeMap::new();
        for e in edges.iter().filter(|e| charged(e) && e.from == p.name) {
            let slot = out_ports.entry(e.from_port.as_str()).or_insert(0);
            *slot = (*slot).max(e.item_bytes);
        }
        bytes = out_ports.values().fold(bytes, |b, v| b.saturating_add(*v));
        if bytes > 0 {
            per.insert(p.name.clone(), bytes);
        }
    }
    per
}

/// Seconds one job of each service spends moving its data through the
/// central enactor — the transfer term `lint --predict` adds on top of
/// eq. 1–4. Services that move nothing are absent from the map.
pub(crate) fn central_transfer_seconds(
    wf: &Workflow,
    n_data: u64,
    bandwidth: f64,
) -> BTreeMap<String, f64> {
    let opts = PlanOptions {
        sizes: SourceSizes::uniform(n_data),
        bandwidth,
        ..PlanOptions::default()
    };
    let out = output_intervals(wf, &opts.sizes);
    let edges: Vec<EdgePlan> = wf
        .links
        .iter()
        .map(|l| edge_plan(wf, l, &out, &opts))
        .collect();
    per_job_transfer_bytes(wf, &edges, &|_| true)
        .into_iter()
        .map(|(name, bytes)| (name, bytes as f64 / bandwidth))
        .collect()
}

// ---------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------

/// Render the report as an aligned human-readable table.
pub fn render_plan(report: &PlanReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "plan for `{}` (n_data = {}, overhead = {}s, bandwidth = {} B/s):",
        report.workflow, report.n_data, report.overhead, report.bandwidth
    );
    let _ = writeln!(out, "  per-edge transfer bounds:");
    for e in &report.edges {
        let _ = writeln!(
            out,
            "    {:<40} items {:<12} × {:>9} B = {} {}",
            format!("{}:{} → {}:{}", e.from, e.from_port, e.to, e.to_port),
            e.items.to_string(),
            e.item_bytes,
            e.bytes,
            if e.grid { "" } else { "(enactor-internal)" }
        );
    }
    let _ = writeln!(out, "  site fragments (greedy min-cut grouping):");
    for (i, f) in report.partition.fragments.iter().enumerate() {
        let _ = writeln!(out, "    fragment {}: {}", i, f.processors.join(", "));
    }
    let _ = writeln!(
        out,
        "  enactor-routed bytes: centralized {}, partitioned {}",
        report.partition.total_bytes, report.partition.cut_bytes
    );
    match (report.makespan_centralized, report.makespan_partitioned) {
        (Some(c), Some(p)) => {
            let _ = writeln!(
                out,
                "  predicted makespan (Σ_DSP + transfer): centralized {c:.2}s, \
                 partitioned {p:.2}s"
            );
        }
        _ => {
            let _ = writeln!(
                out,
                "  predicted makespan: unavailable (cyclic workflow or no cost models)"
            );
        }
    }
    out
}

/// Append an interval's `lo`/`hi` fields to a JSON object under
/// `{prefix}_lo` / `{prefix}_hi` (`hi` is `null` when unbounded).
fn interval_fields(obj: JsonObject, prefix: &str, iv: CardInterval) -> JsonObject {
    let obj = obj.uint(&format!("{prefix}_lo"), iv.lo);
    match iv.hi {
        Some(hi) => obj.uint(&format!("{prefix}_hi"), hi),
        None => obj.raw(&format!("{prefix}_hi"), "null"),
    }
}

/// Serialise the report as single-line `moteur/plan/v1` JSON.
pub fn plan_to_json(report: &PlanReport) -> String {
    let intervals = report.intervals.iter().map(|(name, iv)| {
        interval_fields(JsonObject::new().str("processor", name), "items", *iv).finish()
    });
    let edges = report.edges.iter().map(|e| {
        let obj = JsonObject::new()
            .str("from", &e.from)
            .str("from_port", &e.from_port)
            .str("to", &e.to)
            .str("to_port", &e.to_port);
        let obj = interval_fields(obj, "items", e.items).uint("item_bytes", e.item_bytes);
        interval_fields(obj, "bytes", e.bytes)
            .bool("grid", e.grid)
            .finish()
    });
    let fragments = report.partition.fragments.iter().map(|f| {
        array(
            f.processors
                .iter()
                .map(|p| format!("\"{}\"", crate::obs::json::escape(p))),
        )
    });
    let obj = JsonObject::new()
        .str("schema", "moteur/plan/v1")
        .str("workflow", &report.workflow)
        .uint("n_data", report.n_data)
        .num("overhead", report.overhead)
        .num("bandwidth", report.bandwidth)
        .raw("intervals", &array(intervals))
        .raw("edges", &array(edges))
        .raw("fragments", &array(fragments));
    let obj = interval_fields(obj, "total_bytes", report.partition.total_bytes);
    let obj = interval_fields(obj, "cut_bytes", report.partition.cut_bytes);
    let obj = match report.makespan_centralized {
        Some(v) => obj.num("makespan_centralized", v),
        None => obj.raw("makespan_centralized", "null"),
    };
    match report.makespan_partitioned {
        Some(v) => obj.num("makespan_partitioned", v),
        None => obj.raw("makespan_partitioned", "null"),
    }
    .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::IterationStrategy;
    use crate::service::ServiceProfile;
    use moteur_wrapper::{AccessMethod, ExecutableDescriptor, FileItem, InputSlot, OutputSlot};

    fn desc(name: &str, inputs: &[(&str, Option<u64>)]) -> ExecutableDescriptor {
        ExecutableDescriptor {
            executable: FileItem {
                name: name.into(),
                access: AccessMethod::Local,
                value: name.into(),
            },
            inputs: inputs
                .iter()
                .map(|(i, bytes)| InputSlot {
                    name: (*i).into(),
                    option: format!("-{i}"),
                    access: Some(AccessMethod::Gfn),
                    bytes: *bytes,
                })
                .collect(),
            outputs: vec![OutputSlot {
                name: "out".into(),
                option: "-o".into(),
                access: AccessMethod::Gfn,
            }],
            sandboxes: vec![],
            nondeterministic: false,
        }
    }

    fn add(
        wf: &mut Workflow,
        name: &str,
        inputs: &[(&str, Option<u64>)],
        profile: ServiceProfile,
    ) -> crate::graph::ProcId {
        let ports: Vec<&str> = inputs.iter().map(|(i, _)| *i).collect();
        wf.add_service(
            name,
            &ports,
            &["out"],
            ServiceBinding::descriptor(desc(name, inputs), profile),
        )
    }

    /// src(1 MB/item) → a(out 2 MB) → b → sink, 10 items.
    fn pipeline() -> Workflow {
        let mut wf = Workflow::new("pipe");
        let src = wf.add_source("src");
        wf.set_item_bytes(src, 1_000_000);
        let a = add(
            &mut wf,
            "a",
            &[("in", None)],
            ServiceProfile::new(50.0).with_output_bytes("out", 2_000_000),
        );
        let b = add(
            &mut wf,
            "b",
            &[("in", Some(3_000_000))],
            ServiceProfile::new(50.0),
        );
        let sink = wf.add_sink("sink");
        wf.connect(src, "out", a, "in").unwrap();
        wf.connect(a, "out", b, "in").unwrap();
        wf.connect(b, "out", sink, "in").unwrap();
        wf
    }

    fn opts(n: u64) -> PlanOptions {
        PlanOptions {
            sizes: SourceSizes::uniform(n),
            ..PlanOptions::default()
        }
    }

    #[test]
    fn item_size_resolution_prefers_producer_declarations() {
        let wf = pipeline();
        let report = analyze(&wf, &opts(10));
        // src→a: the source's declared 1 MB wins.
        assert_eq!(report.edges[0].item_bytes, 1_000_000);
        assert_eq!(report.edges[0].bytes, CardInterval::exact(10_000_000));
        // a→b: the producer's <outputsize> beats b's declared slot size.
        assert_eq!(report.edges[1].item_bytes, 2_000_000);
        // b→sink: nothing declared on b's output — default size.
        assert_eq!(report.edges[2].item_bytes, DEFAULT_ITEM_BYTES);
        assert!(!report.edges[2].grid, "sink edges are enactor-internal");
    }

    #[test]
    fn consumer_slot_size_is_the_fallback() {
        let mut wf = Workflow::new("fallback");
        let src = wf.add_source("src"); // no declared size
        let a = add(&mut wf, "a", &[("in", Some(777))], ServiceProfile::new(1.0));
        wf.connect(src, "out", a, "in").unwrap();
        let report = analyze(&wf, &opts(3));
        assert_eq!(report.edges[0].item_bytes, 777);
    }

    #[test]
    fn barrier_edges_carry_whole_streams() {
        let mut wf = Workflow::new("sync");
        let src = wf.add_source("src");
        wf.set_item_bytes(src, 100);
        let a = add(&mut wf, "a", &[("in", None)], ServiceProfile::new(1.0));
        let all = add(&mut wf, "all", &[("in", None)], ServiceProfile::new(1.0));
        wf.set_synchronization(all, true);
        wf.connect(src, "out", a, "in").unwrap();
        wf.connect(a, "out", all, "in").unwrap();
        let report = analyze(&wf, &opts(8));
        // a fires 8 times; the barrier's one invocation fetches all 8.
        assert_eq!(report.edges[1].items, CardInterval::exact(8));
    }

    #[test]
    fn cross_products_refetch_per_tuple() {
        let mut wf = Workflow::new("cross");
        let a = wf.add_source("a");
        let b = wf.add_source("b");
        let x = add(
            &mut wf,
            "x",
            &[("l", None), ("r", None)],
            ServiceProfile::new(1.0),
        );
        wf.set_iteration(x, IterationStrategy::Cross);
        wf.connect(a, "out", x, "l").unwrap();
        wf.connect(b, "out", x, "r").unwrap();
        let report = analyze(&wf, &opts(5));
        // 25 invocations stage an item on each port each time.
        assert_eq!(report.edges[0].items, CardInterval::exact(25));
        assert_eq!(report.edges[1].items, CardInterval::exact(25));
    }

    #[test]
    fn partition_groups_the_heaviest_edge_and_cuts_less() {
        let wf = pipeline();
        let report = analyze(&wf, &opts(10));
        // Both services fit one fragment: the a→b flow becomes
        // site-internal, only src→a (and the sink delivery) remain.
        assert_eq!(report.partition.fragments.len(), 1);
        assert_eq!(report.partition.fragments[0].processors, ["a", "b"]);
        assert!(report.partition.cut_bytes.lo < report.partition.total_bytes.lo);
        let (c, p) = (
            report.makespan_centralized.unwrap(),
            report.makespan_partitioned.unwrap(),
        );
        assert!(p < c, "partitioned {p} should beat centralized {c}");
    }

    #[test]
    fn fragment_cap_limits_group_size() {
        let wf = pipeline();
        let mut o = opts(10);
        o.max_fragment = 1;
        let report = analyze(&wf, &o);
        assert_eq!(report.partition.fragments.len(), 2);
        // Nothing groups, so every grid edge stays enactor-routed.
        assert_eq!(report.partition.cut_bytes, report.partition.total_bytes);
    }

    #[test]
    fn cyclic_workflows_plan_without_makespans() {
        let mut wf = Workflow::new("cyclic");
        let src = wf.add_source("src");
        let a = add(
            &mut wf,
            "a",
            &[("in", None), ("feedback", None)],
            ServiceProfile::new(1.0),
        );
        wf.connect(src, "out", a, "in").unwrap();
        wf.connect(a, "out", a, "feedback").unwrap();
        let report = analyze(&wf, &opts(4));
        assert!(report.makespan_centralized.is_none());
        assert_eq!(report.edges[1].items.hi, None, "cycle edge is unbounded");
        let json = plan_to_json(&report);
        assert!(json.contains("\"makespan_centralized\":null"));
        assert!(json.contains("\"items_hi\":null"));
    }

    #[test]
    fn json_is_wellformed_and_tagged() {
        let report = analyze(&pipeline(), &opts(10));
        let json = plan_to_json(&report);
        let v = crate::obs::json::JsonValue::parse(&json).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("moteur/plan/v1"));
        assert_eq!(v.get("edges").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("n_data").unwrap().as_usize(), Some(10));
        let human = render_plan(&report);
        assert!(human.contains("site fragments"));
        assert!(human.contains("a:out → b:in"));
    }
}
