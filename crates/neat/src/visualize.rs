//! Genome visualization: Graphviz DOT export.
//!
//! Evolved topologies are the whole point of NEAT; being able to *look*
//! at a champion is table stakes for a usable library. [`genome_to_dot`]
//! renders inputs as boxes, outputs as double circles, hidden nodes as
//! circles, and connections with weight-proportional pen widths (disabled
//! genes dashed).

use crate::config::NeatConfig;
use crate::gene::NodeId;
use crate::genome::Genome;
use std::fmt::Write as _;

/// Renders `genome` as a Graphviz `digraph`.
///
/// Feed the output to `dot -Tpng genome.dot -o genome.png`.
pub fn genome_to_dot(genome: &Genome, cfg: &NeatConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph genome_{} {{", genome.id().0);
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [fontsize=10];");

    // Inputs.
    let _ = writeln!(
        out,
        "  subgraph cluster_inputs {{ label=\"inputs\"; color=gray;"
    );
    for i in 0..cfg.num_inputs {
        let id = NodeId::input(i);
        let _ = writeln!(out, "    \"{}\" [shape=box, label=\"in{}\"];", id, i);
    }
    let _ = writeln!(out, "  }}");

    // Outputs and hidden nodes.
    for (id, gene) in genome.nodes().iter() {
        let (shape, label) = if id.is_output(cfg.num_outputs) {
            ("doublecircle", format!("out{}\\nb={:.2}", id.0, gene.bias))
        } else {
            ("circle", format!("h\\nb={:.2}", gene.bias))
        };
        let _ = writeln!(out, "  \"{}\" [shape={}, label=\"{}\"];", id, shape, label);
    }

    // Connections.
    for (key, gene) in genome.conns().iter() {
        let style = if gene.enabled { "solid" } else { "dashed" };
        let color = if gene.weight >= 0.0 {
            "forestgreen"
        } else {
            "crimson"
        };
        let width = (gene.weight.abs() / 3.0).clamp(0.3, 3.0);
        let _ = writeln!(
            out,
            "  \"{}\" -> \"{}\" [style={}, color={}, penwidth={:.2}, label=\"{:.2}\"];",
            key.input, key.output, style, color, width, gene.weight
        );
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gene::GenomeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dot_contains_all_genes() {
        let cfg = NeatConfig::builder(2, 1).build().unwrap();
        let mut g = Genome::new_initial(&cfg, GenomeId(3), &mut StdRng::seed_from_u64(1));
        g.mutate_add_node(&cfg, &mut StdRng::seed_from_u64(2));
        let dot = genome_to_dot(&g, &cfg);
        assert!(dot.starts_with("digraph genome_3 {"));
        assert!(dot.trim_end().ends_with('}'));
        assert_eq!(dot.matches("shape=box").count(), 2, "two inputs");
        assert_eq!(dot.matches("doublecircle").count(), 1, "one output");
        assert_eq!(
            dot.matches(" -> ").count(),
            g.conns().len(),
            "every connection rendered"
        );
        assert!(dot.contains("dashed"), "split leaves a disabled gene");
    }

    #[test]
    fn dot_is_stable_for_same_genome() {
        let cfg = NeatConfig::builder(3, 2).build().unwrap();
        let g = Genome::new_initial(&cfg, GenomeId(0), &mut StdRng::seed_from_u64(4));
        assert_eq!(genome_to_dot(&g, &cfg), genome_to_dot(&g, &cfg));
    }
}
