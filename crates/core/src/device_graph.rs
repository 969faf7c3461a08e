//! Kernel-facing graph view: plain or log-encoded CSC.
//!
//! Both views precompute, once per run, the unpacked row starts and the
//! per-edge integer acceptance thresholds ([`weight_threshold`]). The fused
//! IC sampler scans a row through [`DeviceGraph::in_row`] — its first edge
//! index and threshold slice — and resolves a neighbor id through
//! [`DeviceGraph::neighbor_at`] only for an edge its draw accepts. On the
//! log-encoded view that is one packed decode per accepted edge rather than
//! a decode of every neighbor of every dequeued row.

use eim_bitpack::PackedCsc;
use eim_graph::{Graph, VertexId, Weight};

/// Integer acceptance threshold of an IC edge weight `p`: a uniform draw
/// `u: u32` activates the edge iff `(u >> 8) <= weight_threshold(p)`.
///
/// This is *exactly* the float comparison `r <= p` with
/// `r = (u >> 8) as f32 * 2^-24` (the vendored `Standard` f32 draw): the
/// 24-bit mantissa `m = u >> 8` scales to f32 losslessly, and
/// `p * 2^24` is exact in f64, so `m * 2^-24 <= p  <=>  m <= floor(p * 2^24)`.
/// Precomputing the threshold lets the kernel compare raw keystream words
/// against the CSC weights with no float conversion per edge.
#[inline]
pub fn weight_threshold(p: f32) -> u32 {
    ((p as f64 * 16_777_216.0).floor() as u64).min(u32::MAX as u64) as u32
}

/// What a sampling kernel needs from the device-resident network data,
/// independent of whether it is log-encoded.
pub trait DeviceGraph: Sync {
    /// Vertex count.
    fn n(&self) -> usize;
    /// In-degree of `v`.
    fn in_degree(&self, v: VertexId) -> usize;
    /// The `i`-th in-neighbor of `v`.
    fn in_neighbor(&self, v: VertexId, i: usize) -> VertexId;
    /// Weight of the `i`-th in-edge of `v`.
    fn in_weight(&self, v: VertexId, i: usize) -> Weight;
    /// Bytes this representation occupies on the device.
    fn device_bytes(&self) -> usize;
    /// `v`'s in-row as the fused sampler scans it: the flat CSC index of
    /// its first in-edge, and the integer acceptance thresholds
    /// ([`weight_threshold`]) of its edges in row order. Edge `i` of the
    /// row has flat index `first + i`; [`DeviceGraph::neighbor_at`]
    /// resolves it only once a draw accepts the edge.
    fn in_row(&self, v: VertexId) -> (usize, &[u32]);
    /// The in-neighbor at flat CSC edge index `e` (see
    /// [`DeviceGraph::in_row`]).
    fn neighbor_at(&self, e: usize) -> VertexId;
}

/// Plain (uncompressed) CSC view — what gIM keeps on the device.
///
/// Construction precomputes the flat per-edge threshold array mirroring the
/// CSC weight array, so [`DeviceGraph::in_row`] is a slice; engines build
/// the view once per run, amortizing the `O(m)` pass.
pub struct PlainDeviceGraph<'g> {
    graph: &'g Graph,
    /// Exclusive prefix of in-degrees: edge range of `v` in `thresholds`.
    edge_starts: Vec<usize>,
    /// Per-edge acceptance thresholds in CSC order ([`weight_threshold`]).
    thresholds: Vec<u32>,
}

impl<'g> PlainDeviceGraph<'g> {
    /// Wraps a graph, precomputing the edge threshold array.
    pub fn new(graph: &'g Graph) -> Self {
        let n = graph.num_vertices();
        let mut edge_starts = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        edge_starts.push(0);
        for v in 0..n as VertexId {
            acc += graph.in_degree(v);
            edge_starts.push(acc);
        }
        let mut thresholds = Vec::with_capacity(acc);
        for v in 0..n as VertexId {
            thresholds.extend(graph.in_weights(v).iter().map(|&p| weight_threshold(p)));
        }
        Self {
            graph,
            edge_starts,
            thresholds,
        }
    }
}

impl DeviceGraph for PlainDeviceGraph<'_> {
    fn n(&self) -> usize {
        self.graph.num_vertices()
    }
    fn in_degree(&self, v: VertexId) -> usize {
        self.graph.in_degree(v)
    }
    fn in_neighbor(&self, v: VertexId, i: usize) -> VertexId {
        self.graph.in_neighbors(v)[i]
    }
    fn in_weight(&self, v: VertexId, i: usize) -> Weight {
        self.graph.in_weights(v)[i]
    }
    fn device_bytes(&self) -> usize {
        // Thresholds re-encode the weight array (same 4 bytes per edge on
        // device), so the footprint matches the plain CSC layout.
        self.graph.csc_bytes()
    }
    fn in_row(&self, v: VertexId) -> (usize, &[u32]) {
        let (s, e) = (
            self.edge_starts[v as usize],
            self.edge_starts[v as usize + 1],
        );
        (s, &self.thresholds[s..e])
    }
    fn neighbor_at(&self, e: usize) -> VertexId {
        self.graph.csc().neighbors()[e]
    }
}

/// Log-encoded CSC view with the same once-per-run host precomputation
/// [`PlainDeviceGraph`] gets: per-edge acceptance thresholds in flat CSC
/// order and unpacked row starts. The device still holds only the packed
/// arrays — thresholds re-encode the weight array at the same 4 bytes per
/// edge the plain view claims, and the row starts mirror the packed
/// offsets — so [`DeviceGraph::device_bytes`] delegates to the packed
/// representation unchanged. Per access, only neighbor ids are decoded: one
/// [`PackedCsc::neighbor_at`] per edge the sampler accepts (IC) or the
/// walk chooses (LT), never a whole row.
pub struct PackedDeviceGraph {
    csc: PackedCsc,
    /// Exclusive prefix of in-degrees: edge range of `v` in `thresholds`
    /// and in the packed neighbor stream.
    row_starts: Vec<usize>,
    /// Per-edge acceptance thresholds in CSC order ([`weight_threshold`]).
    thresholds: Vec<u32>,
}

impl PackedDeviceGraph {
    /// Wraps a packed CSC, precomputing row starts and edge thresholds.
    pub fn new(csc: PackedCsc) -> Self {
        let n = csc.num_vertices();
        let m = csc.num_edges();
        let mut row_starts = Vec::with_capacity(n + 1);
        let mut thresholds = Vec::with_capacity(m);
        for v in 0..n as VertexId {
            let (start, end) = csc.row_bounds(v);
            row_starts.push(start);
            match csc.plain_weights(start, end) {
                Some(ws) => thresholds.extend(ws.iter().map(|&p| weight_threshold(p))),
                None => {
                    // Derived weights are constant across the row.
                    let d = end - start;
                    let t = weight_threshold(if d == 0 { 0.0 } else { 1.0 / d as Weight });
                    thresholds.resize(thresholds.len() + d, t);
                }
            }
        }
        row_starts.push(m);
        Self {
            csc,
            row_starts,
            thresholds,
        }
    }

    /// The wrapped packed representation.
    pub fn csc(&self) -> &PackedCsc {
        &self.csc
    }

    /// Start/end of row `v` in the flat edge order.
    #[inline]
    fn row_bounds(&self, v: VertexId) -> (usize, usize) {
        (self.row_starts[v as usize], self.row_starts[v as usize + 1])
    }
}

impl DeviceGraph for PackedDeviceGraph {
    fn n(&self) -> usize {
        self.csc.num_vertices()
    }
    fn in_degree(&self, v: VertexId) -> usize {
        self.row_starts[v as usize + 1] - self.row_starts[v as usize]
    }
    fn in_neighbor(&self, v: VertexId, i: usize) -> VertexId {
        self.csc.neighbor_at(self.row_starts[v as usize] + i)
    }
    fn in_weight(&self, v: VertexId, i: usize) -> Weight {
        let (start, end) = self.row_bounds(v);
        match self.csc.plain_weights(start, end) {
            Some(ws) => ws[i],
            // Derived weights: `1 / d`, exactly as `PackedCsc::in_weight`.
            None => 1.0 / (end - start) as Weight,
        }
    }
    fn device_bytes(&self) -> usize {
        self.csc.bytes()
    }
    fn in_row(&self, v: VertexId) -> (usize, &[u32]) {
        let (start, end) = self.row_bounds(v);
        (start, &self.thresholds[start..end])
    }
    fn neighbor_at(&self, e: usize) -> VertexId {
        self.csc.neighbor_at(e)
    }
}

/// Test graph whose vertex count (1000) is not a power of two, so packed
/// 10-bit neighbor ids straddle 64-bit words, with four hub rows of
/// in-degree > 256 that make the fused scan cross a 128-word keystream
/// refill in the middle of a row. Hubs point at one another, so IC
/// traversals revisit them.
#[cfg(test)]
pub(crate) fn hub_graph() -> Graph {
    use eim_graph::{generators, GraphBuilder, WeightModel};
    let n = 1_000u32;
    let background = generators::rmat(
        n as usize,
        5_000,
        generators::RmatParams::GRAPH500,
        WeightModel::WeightedCascade,
        29,
    );
    let hubs = [3u32, 500, 777, 998];
    let hub_edges = hubs.iter().flat_map(|&h| {
        (0..n)
            .filter(move |u| (u * 7 + h) % 3 != 0)
            .map(move |u| (u, h))
    });
    GraphBuilder::new(n as usize)
        .edges(
            background
                .iter_edges()
                .map(|(u, v, _)| (u, v))
                .chain(hub_edges),
        )
        .build(WeightModel::WeightedCascade)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eim_graph::{generators, WeightModel};

    fn graphs() -> Vec<Graph> {
        let rmat = generators::rmat(
            400,
            2_000,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            3,
        );
        let hubs = hub_graph();
        assert!((0..1_000u32).any(|v| hubs.in_degree(v) > 256));
        vec![rmat, hubs]
    }

    #[test]
    fn plain_and_packed_views_agree() {
        for g in graphs() {
            let plain = PlainDeviceGraph::new(&g);
            let packed = PackedDeviceGraph::new(PackedCsc::from_graph(&g));
            let derived = PackedDeviceGraph::new(PackedCsc::from_graph_derived(&g));
            assert_eq!(plain.n(), packed.n());
            for v in 0..g.num_vertices() as VertexId {
                assert_eq!(plain.in_degree(v), packed.in_degree(v));
                assert_eq!(plain.in_degree(v), derived.in_degree(v));
                for i in 0..plain.in_degree(v) {
                    assert_eq!(plain.in_neighbor(v, i), packed.in_neighbor(v, i));
                    assert_eq!(plain.in_neighbor(v, i), derived.in_neighbor(v, i));
                    // The LT walk's prefix sums read these: bit-identical to
                    // the packed representation's own accessor.
                    for view in [&packed, &derived] {
                        assert_eq!(
                            view.in_weight(v, i).to_bits(),
                            view.csc().in_weight(v, i).to_bits()
                        );
                    }
                    assert_eq!(plain.in_weight(v, i), packed.in_weight(v, i));
                }
            }
            assert!(packed.device_bytes() < plain.device_bytes());
        }
    }

    #[test]
    fn in_row_views_agree_with_per_edge_accessors() {
        for g in graphs() {
            let plain = PlainDeviceGraph::new(&g);
            let packed = PackedDeviceGraph::new(PackedCsc::from_graph(&g));
            let derived = PackedDeviceGraph::new(PackedCsc::from_graph_derived(&g));
            for v in 0..g.num_vertices() as VertexId {
                assert_eq!(plain.in_row(v), packed.in_row(v));
                assert_eq!(plain.in_row(v).0, derived.in_row(v).0);
                let views: [&dyn DeviceGraph; 3] = [&plain, &packed, &derived];
                for view in views {
                    let (first, thresholds) = view.in_row(v);
                    assert_eq!(thresholds.len(), view.in_degree(v));
                    for (i, &t) in thresholds.iter().enumerate() {
                        assert_eq!(view.neighbor_at(first + i), view.in_neighbor(v, i));
                        // Derived weights (weighted cascade) encode 1/d
                        // exactly as the per-edge accessor does.
                        assert_eq!(t, weight_threshold(view.in_weight(v, i)));
                    }
                }
            }
        }
    }

    #[test]
    fn weight_threshold_matches_float_compare_exactly() {
        // The acceptance decision must be bit-identical to the reference
        // float comparison for every 24-bit mantissa.
        for p in [0.0f32, 1e-9, 0.01, 0.25, 1.0 / 3.0, 0.5, 0.999, 1.0] {
            let t = weight_threshold(p);
            for m in (0u32..1 << 24).step_by(3_191).chain([
                t.saturating_sub(1),
                t,
                t.saturating_add(1).min((1 << 24) - 1),
            ]) {
                let r = m as f32 * (1.0 / (1u32 << 24) as f32);
                assert_eq!(r <= p, m <= t, "p={p} m={m}");
            }
        }
    }
}
