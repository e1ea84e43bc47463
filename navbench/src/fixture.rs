//! The museum every workload runs on, and the seeded edit script the
//! author commits.
//!
//! A data edit rewrites one painting's `technique` to `oil on canvas r<rev>`
//! with a revision number unique to the edit, so every edit changes the
//! woven page and the page's bytes say which revision they carry. That is
//! what lets a reader check a body against the commit log without asking
//! the store under test.

use navsep_bench::Setup;
use navsep_core::layout::{LINKBASE_PATH, TRANSFORM_PATH};
use navsep_hypermodel::AccessStructureKind;
use navsep_web::Site;
use navsep_xml::Document;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Corpus dimensions: `painters` contexts of `per` paintings each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Painters (one navigational context each).
    pub painters: usize,
    /// Paintings per painter.
    pub per: usize,
}

impl Scale {
    /// The paper's museum at scale: 960 paintings and 40 painters, 1,001
    /// woven resources with the stylesheet.
    pub const FULL: Scale = Scale {
        painters: 40,
        per: 24,
    };
}

/// Every spec batch is this many batches after the previous one.
pub const SPEC_EVERY: usize = 25;
/// Data batches edit between 1 and this many paintings.
pub const MAX_BATCH: usize = 8;

const TECHNIQUE: &str = "oil on canvas";

/// One committed batch of the author's script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Batch {
    /// Edit these paintings (indices into [`Museum::data_paths`]).
    Data(Vec<usize>),
    /// Replace `transform.xml` with variant `0` or `1`.
    Transform(usize),
    /// Replace `links.xml` with variant `0` (indexed guided tour) or `1`
    /// (index only).
    Links(usize),
}

/// The museum's separated sources plus what the script needs to edit them.
#[derive(Debug)]
pub struct Museum {
    /// Painting data documents (`painting-N.xml`), sorted.
    pub data_paths: Vec<String>,
    /// Painter index pages (`painter-N.html`), where sessions start.
    pub painter_pages: Vec<String>,
    /// Source text of each painting, parallel to `data_paths`.
    painting_text: Vec<String>,
    transforms: [Document; 2],
    linkbases: [Document; 2],
    scale: Scale,
}

impl Museum {
    /// Derives the edit material for `scale`. Not part of any timed set-up.
    pub fn new(scale: Scale) -> Museum {
        let tour = Setup::wide(
            scale.painters,
            scale.per,
            AccessStructureKind::IndexedGuidedTour,
        )
        .separated();
        let index = Setup::wide(scale.painters, scale.per, AccessStructureKind::Index).separated();
        let data_paths: Vec<String> = tour
            .paths()
            .filter(|p| p.starts_with("painting-") && p.ends_with(".xml"))
            .map(String::from)
            .collect();
        let painting_text = data_paths
            .iter()
            .map(|p| document(&tour, p).to_xml_string())
            .collect();
        let painter_pages = tour
            .paths()
            .filter_map(|p| p.strip_prefix("painter-")?.strip_suffix(".xml"))
            .map(|n| format!("painter-{n}.html"))
            .collect();
        let transform = document(&tour, TRANSFORM_PATH).to_xml_string();
        let relabelled = transform.replace("<dt>Technique</dt>", "<dt>Medium</dt>");
        assert_ne!(transform, relabelled, "the transform names the technique");
        Museum {
            data_paths,
            painter_pages,
            painting_text,
            transforms: [parse(&transform), parse(&relabelled)],
            linkbases: [
                document(&tour, LINKBASE_PATH).clone(),
                document(&index, LINKBASE_PATH).clone(),
            ],
            scale,
        }
    }

    /// Builds the separated sources: the first step of every set-up.
    pub fn sources(&self) -> Site {
        Setup::wide(
            self.scale.painters,
            self.scale.per,
            AccessStructureKind::IndexedGuidedTour,
        )
        .separated()
    }

    /// Painting `index` with its technique set to revision `rev`.
    pub fn edited_painting(&self, index: usize, rev: u64) -> Document {
        let text = self.painting_text[index].replace(
            &format!("<technique>{TECHNIQUE}</technique>"),
            &format!("<technique>{}</technique>", technique(rev)),
        );
        parse(&text)
    }

    /// Variant `v` of `transform.xml`.
    pub fn transform(&self, v: usize) -> &Document {
        &self.transforms[v % 2]
    }

    /// Variant `v` of `links.xml`.
    pub fn linkbase(&self, v: usize) -> &Document {
        &self.linkbases[v % 2]
    }
}

/// The technique text revision `rev` writes.
pub fn technique(rev: u64) -> String {
    format!("{TECHNIQUE} r{rev}")
}

/// The author's script: `len` batches from `seed`. Batch `i` (1-based) is a
/// spec edit when `i` is a multiple of [`SPEC_EVERY`], alternating
/// `transform.xml` and `links.xml` and toggling each between its two
/// variants, so every spec edit changes the woven output. Every other batch
/// edits K ∈ [1, [`MAX_BATCH`]] distinct paintings.
pub fn script(seed: u64, len: usize, paintings: usize) -> Vec<Batch> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6175_7468_6f72);
    let mut spec_edits = 0usize;
    (1..=len)
        .map(|i| {
            if i % SPEC_EVERY == 0 {
                spec_edits += 1;
                spec_batch(spec_edits)
            } else {
                let k = rng.gen_range(1..MAX_BATCH.min(paintings) + 1);
                let mut picked: Vec<usize> = Vec::with_capacity(k);
                while picked.len() < k {
                    let p = rng.gen_range(0..paintings);
                    if !picked.contains(&p) {
                        picked.push(p);
                    }
                }
                Batch::Data(picked)
            }
        })
        .collect()
}

/// The `n`-th spec batch (1-based): transform edits 1, 3, 5… and link
/// edits 2, 4, 6…, each flipping its document to the other variant.
pub fn spec_batch(n: usize) -> Batch {
    let variant = n.div_ceil(2) % 2;
    if n % 2 == 1 {
        Batch::Transform(variant)
    } else {
        Batch::Links(variant)
    }
}

/// The steady-state pass: every painting edited once, in batches of
/// [`MAX_BATCH`].
pub fn steady_pass(paintings: usize) -> Vec<Batch> {
    (0..paintings)
        .collect::<Vec<_>>()
        .chunks(MAX_BATCH)
        .map(|c| Batch::Data(c.to_vec()))
        .collect()
}

fn document<'a>(site: &'a Site, path: &str) -> &'a Document {
    site.get(path)
        .and_then(|r| r.document())
        .unwrap_or_else(|| panic!("the museum has a document at {path}"))
}

fn parse(text: &str) -> Document {
    Document::parse(text).expect("edits of well-formed documents stay well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_seeded_and_alternates_specs() {
        let a = script(7, 100, 50);
        assert_eq!(a, script(7, 100, 50));
        assert_ne!(a, script(8, 100, 50));
        let specs: Vec<&Batch> = a.iter().filter(|b| !matches!(b, Batch::Data(_))).collect();
        assert_eq!(
            specs,
            [
                &Batch::Transform(1),
                &Batch::Links(1),
                &Batch::Transform(0),
                &Batch::Links(0)
            ]
        );
        for b in &a {
            if let Batch::Data(k) = b {
                assert!((1..=MAX_BATCH).contains(&k.len()));
            }
        }
    }

    #[test]
    fn edits_change_the_technique_only() {
        let m = Museum::new(Scale {
            painters: 2,
            per: 3,
        });
        assert_eq!(m.data_paths.len(), 6);
        assert_eq!(m.painter_pages.len(), 2);
        let doc = m.edited_painting(0, 42).to_xml_string();
        assert!(doc.contains("oil on canvas r42"), "{doc}");
        assert_eq!(steady_pass(20).len(), 3);
    }
}
