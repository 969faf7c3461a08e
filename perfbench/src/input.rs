//! Workload inputs. The benchmark generates a dataset stand-in from the
//! seed and renders it as a SNAP edge list; the program only ever sees that
//! text, which it parses through `parse_edge_list` as the CLI's `--input`
//! path does.

use std::fmt::Write;
use std::time::Instant;

use eim_diffusion::DiffusionModel;
use eim_graph::{parse_edge_list, Dataset, Graph, WeightModel};
use eim_imm::ImmConfig;

/// One batch or streaming workload's input recipe.
#[derive(Clone, Copy, Debug)]
pub struct InputSpec {
    /// Registry abbreviation of the stand-in dataset.
    pub dataset: &'static str,
    /// Scale factor handed to `Dataset::generate`.
    pub scale: f64,
    pub model: DiffusionModel,
    pub k: usize,
    pub epsilon: f64,
}

/// Every workload weights edges by weighted cascade.
pub const WEIGHTS: WeightModel = WeightModel::WeightedCascade;

impl InputSpec {
    /// `ImmConfig::paper_default()` (packed store, source elimination)
    /// with this workload's model, k, epsilon, and the run seed.
    pub fn config(&self, seed: u64) -> ImmConfig {
        ImmConfig::paper_default()
            .with_model(self.model)
            .with_k(self.k)
            .with_epsilon(self.epsilon)
            .with_seed(seed)
    }

    /// The stand-in for `seed`, rendered as a SNAP edge list.
    pub fn edge_list(&self, seed: u64) -> Vec<u8> {
        let dataset = Dataset::by_abbrev(self.dataset).expect("registered dataset");
        render(&dataset.generate(self.scale, WEIGHTS, seed))
    }
}

fn render(g: &Graph) -> Vec<u8> {
    let mut out = String::with_capacity(g.num_edges() * 14 + 64);
    let _ = writeln!(
        out,
        "# Directed graph: {} nodes, {} edges",
        g.num_vertices(),
        g.num_edges()
    );
    for (u, v, _) in g.iter_edges() {
        let _ = writeln!(out, "{u}\t{v}");
    }
    out.into_bytes()
}

/// Parses an edge list, returning the graph and the host seconds spent.
pub fn parse(text: &[u8]) -> Result<(Graph, f64), String> {
    let t = Instant::now();
    let (graph, _) = parse_edge_list(text, WEIGHTS).map_err(|e| e.to_string())?;
    Ok((graph, t.elapsed().as_secs_f64()))
}
