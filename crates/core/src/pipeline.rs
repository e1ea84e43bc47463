//! The separation pipeline — the paper's Figure 6 made executable.
//!
//! ```text
//!   data (*.xml)      presentation (transform.xml + museum.css)
//!        \                   /
//!         base pages (transform)          navigation (links.xml)
//!                  \                            /
//!                   ASPECT WEAVER  (navsep-aspect)
//!                            |
//!                      the web application
//! ```
//!
//! Input is *only* the separated authoring produced by
//! [`crate::separated::separated_sources`] (or hand-written files of the
//! same shape); output is a served site that experiment F6 proves
//! DOM-equivalent to the tangled baseline.

use crate::error::CoreError;
use crate::fault::{self, FaultPlan};
use crate::fragments::{index_list, nav_block, IndexItem, NavAnchor};
use crate::layout::{data_to_page, ASPECTS_PATH, LINKBASE_PATH, TRANSFORM_PATH};
use navsep_aspect::{
    parse_aspects, AdvicePosition, Aspect, CompiledWeaver, Pointcut, WeaveReport, Weaver,
};
use navsep_hypermodel::NavLinkKind;
use navsep_style::Transform;
use navsep_web::{Resource, Site};
use navsep_xlink::{Endpoint, Linkbase, ResolutionMemo};
use navsep_xml::{Document, ElementBuilder};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Renders a `catch_unwind` payload for [`CoreError::WorkerPanic`].
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The navigation destined for one page, accumulated from the linkbase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageNav {
    /// Index entries (only group/entry pages have these).
    pub index_items: Vec<IndexItem>,
    /// Traversal anchors, in linkbase order (canonically sorted at render).
    pub anchors: Vec<NavAnchor>,
}

impl PageNav {
    /// Renders this page's navigation fragments: the index list (if any)
    /// followed by one `<div class="navigation">` per context.
    pub fn fragments(&self) -> Vec<ElementBuilder> {
        let mut out = Vec::new();
        if !self.index_items.is_empty() {
            out.push(index_list(&self.index_items));
        }
        // Group anchors by context, preserving first-appearance order.
        let mut order: Vec<&str> = Vec::new();
        for a in &self.anchors {
            if !order.contains(&a.context.as_str()) {
                order.push(&a.context);
            }
        }
        for ctx in order {
            let group: Vec<NavAnchor> = self
                .anchors
                .iter()
                .filter(|a| a.context == ctx)
                .cloned()
                .collect();
            out.push(nav_block(&group));
        }
        out
    }
}

/// The result of weaving: the final site plus per-page weave reports.
#[derive(Debug)]
pub struct WovenOutput {
    /// The served site (pages + passthrough raw resources).
    pub site: Site,
    /// One report per woven page.
    pub reports: Vec<WeaveReport>,
}

/// Derives the per-page navigation map from a linkbase.
///
/// Walks extended links (one per navigational context — the `xlink:role`
/// carries the context name), expands their arcs, and turns each traversal
/// into an index item or navigation anchor on its *starting* page.
///
/// # Errors
///
/// Rejects linkbases whose extended links lack a role, whose locators do not
/// address data documents, or whose arcroles aren't navsep navigation roles.
pub fn navigation_map(linkbase: &Linkbase) -> Result<BTreeMap<String, PageNav>, CoreError> {
    let mut map: BTreeMap<String, PageNav> = BTreeMap::new();
    for (link, traversals) in linkbase.link_traversals() {
        let context = link.role.clone().ok_or_else(|| {
            CoreError::Pipeline("extended link missing xlink:role (the context name)".to_string())
        })?;
        for t in traversals.map_err(CoreError::XLink)? {
            let from_page = endpoint_page(&t.from)?;
            let to_page = endpoint_page(&t.to)?;
            let kind = t
                .arcrole
                .as_deref()
                .and_then(NavLinkKind::from_arcrole)
                .ok_or_else(|| {
                    CoreError::Pipeline(format!(
                        "arcrole {:?} is not a navsep navigation role",
                        t.arcrole
                    ))
                })?;
            let entry = map.entry(from_page.clone()).or_default();
            match kind {
                NavLinkKind::IndexEntry => {
                    let label = t.title.as_deref().map_or_else(
                        || to_page.trim_end_matches(".html").to_string(),
                        str::to_string,
                    );
                    entry.index_items.push((to_page, label, context.clone()));
                }
                other => {
                    let label = t
                        .title
                        .as_deref()
                        .unwrap_or(other.default_label())
                        .to_string();
                    entry.anchors.push(NavAnchor {
                        rel: crate::fragments::rel_of(other),
                        href: to_page,
                        label,
                        context: context.clone(),
                    });
                }
            }
        }
    }
    Ok(map)
}

/// The page a traversal endpoint lands on. Linkbase traversals carry hrefs
/// already resolved against the linkbase's path.
fn endpoint_page(ep: &Endpoint) -> Result<String, CoreError> {
    match ep {
        Endpoint::Remote(href) => data_to_page(href.document()).ok_or_else(|| {
            CoreError::Pipeline(format!(
                "locator href {:?} does not address a data document",
                href.to_string()
            ))
        }),
        Endpoint::Local(_) => Err(CoreError::Pipeline(
            "navsep linkbases use locators, not local resources".to_string(),
        )),
    }
}

/// Builds the navigation aspect from a shared per-page navigation map.
///
/// One aspect, one rule: at every page `<body>`, append that page's
/// navigation fragments. This *is* the paper's navigational aspect. The
/// map is shared so a reweave does not re-expand the linkbase; the advice
/// depends only on which page is being woven, never on its contents.
pub fn navigation_aspect_shared(map: Arc<BTreeMap<String, PageNav>>) -> Aspect {
    Aspect::new("navigation").generated_rule(
        Pointcut::Element("body".to_string()),
        AdvicePosition::Append,
        move |jp| map.get(jp.page).map(PageNav::fragments).unwrap_or_default(),
    )
}

/// The last value compiled for one spec kind, under the key it was
/// compiled from.
#[derive(Debug)]
struct Slot<K, T>(Mutex<Option<(K, Arc<T>)>>);

impl<K, T> Default for Slot<K, T> {
    fn default() -> Self {
        Slot(Mutex::new(None))
    }
}

impl<K, T> Slot<K, T> {
    fn lock(&self) -> MutexGuard<'_, Option<(K, Arc<T>)>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A parsed `links.xml`, the per-page navigation map expanded from it, and
/// what validating its locators against the data found last time.
type CompiledLinks = (
    Linkbase,
    Arc<BTreeMap<String, PageNav>>,
    Mutex<ResolutionMemo>,
);

/// Caches the compiled form of the specs the pipeline consumes: one slot
/// per spec kind, each holding the last value compiled under its content
/// hash, so a reweave of unchanged specs skips parsing and compilation
/// entirely:
///
/// * `transform.xml` → a compiled [`Transform`];
/// * `links.xml` → the parsed [`Linkbase`], its expanded per-page
///   navigation map, and a [`ResolutionMemo`] of its locators;
/// * the (`links.xml`, `aspects.xml`) pair → the fully [`CompiledWeaver`]
///   (the navigation aspect plus the parsed site aspects), with every rule
///   pointcut pre-analyzed into its index candidate plan.
///
/// A lookup whose key differs from the slot's empties the slot before it
/// compiles (a `links.xml` miss empties the weaver slot too, since the
/// compiled weaver shares the navigation map), so at most one compiled
/// value per kind is ever held: editing one spec recompiles only what
/// depends on it, and the superseded value is dropped before its successor
/// is built. Compile errors leave the slot empty; the next weave retries.
///
/// Locator validation runs on every weave, since the data documents may
/// change under an unchanged linkbase, but through the links slot's
/// [`ResolutionMemo`]: each href keeps its last outcome under the content
/// hash of the document it looked up, so a weave resolves again only the
/// hrefs whose target document changed. A `links.xml` miss drops the memo
/// with the slot, and the new linkbase's hrefs are all resolved afresh.
///
/// # Examples
///
/// ```
/// use navsep_core::museum::{museum_navigation, paper_museum};
/// use navsep_core::pipeline::{Weave, WeaveCache};
/// use navsep_core::separated::separated_sources;
/// use navsep_core::spec::paper_spec;
/// use navsep_hypermodel::AccessStructureKind;
///
/// let sources = separated_sources(
///     &paper_museum(),
///     &museum_navigation(),
///     &paper_spec(AccessStructureKind::Index),
/// )?;
/// let cache = WeaveCache::new();
/// let cached = Weave { cache: Some(&cache), ..Weave::default() };
/// let first = cached.run(&sources)?; // compiles specs, resolves locators
/// let resolved = cache.locators_resolved();
/// let again = cached.run(&sources)?; // pure cache hits
/// assert_eq!(first.site.len(), again.site.len());
/// // One compile and one hit per slot: transform, links, weaver.
/// assert_eq!((cache.misses(), cache.hits()), (3, 3));
/// // No data document changed, so no locator was resolved again.
/// assert_eq!(cache.locators_resolved(), resolved);
/// # Ok::<(), navsep_core::CoreError>(())
/// ```
#[derive(Debug, Default)]
pub struct WeaveCache {
    transform: Slot<u64, Transform>,
    links: Slot<u64, CompiledLinks>,
    weaver: Slot<(u64, Option<u64>), CompiledWeaver>,
    hits: AtomicU64,
    misses: AtomicU64,
    resolved: AtomicU64,
}

impl WeaveCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total lookups that found a compiled spec.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookups that had to compile.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total locator hrefs resolved against their target documents by
    /// locator validation; an href whose target is unchanged since it was
    /// last resolved costs a lookup and is not counted.
    pub fn locators_resolved(&self) -> u64 {
        self.resolved.load(Ordering::Relaxed)
    }

    /// Compiled specs currently held: at most one per slot, so never more
    /// than 3.
    pub fn entries(&self) -> usize {
        usize::from(self.transform.lock().is_some())
            + usize::from(self.links.lock().is_some())
            + usize::from(self.weaver.lock().is_some())
    }

    /// Returns `slot`'s value if it was compiled under `key`; otherwise
    /// empties the slot, runs `compile`, and keeps its output. The slot
    /// stays locked while compiling, so racing weaves compile once.
    fn get_or_compile<K: PartialEq, T>(
        &self,
        slot: &Slot<K, T>,
        key: K,
        compile: impl FnOnce() -> Result<T, CoreError>,
    ) -> Result<Arc<T>, CoreError> {
        let mut last = slot.lock();
        if let Some((held, value)) = &*last {
            if *held == key {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(value));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        *last = None;
        let value = Arc::new(compile()?);
        *last = Some((key, Arc::clone(&value)));
        Ok(value)
    }
}

/// Compiles (or fetches from `cache`) every spec in `sources`, validates
/// locator resolution against the current data set, and returns the
/// transform plus the compiled weaver for (navigation aspect + site aspects
/// + `extra_aspects`).
fn compile_specs(
    sources: &Site,
    cache: &WeaveCache,
    extra_aspects: &[Aspect],
) -> Result<(Arc<Transform>, Arc<CompiledWeaver>), CoreError> {
    let transform_doc = sources
        .get(TRANSFORM_PATH)
        .and_then(Resource::document)
        .ok_or_else(|| CoreError::Pipeline(format!("missing {TRANSFORM_PATH}")))?;
    let links_doc = sources
        .get(LINKBASE_PATH)
        .and_then(Resource::document)
        .ok_or_else(|| CoreError::Pipeline(format!("missing {LINKBASE_PATH}")))?;

    // `content_hash` is memoized on the documents themselves, so a
    // steady-state reweave looks every key up without serializing (let
    // alone re-hashing) any spec.
    let transform = cache.get_or_compile(&cache.transform, transform_doc.content_hash(), || {
        Transform::from_document(transform_doc).map_err(CoreError::Template)
    })?;
    let links_key = links_doc.content_hash();
    let links = cache.get_or_compile(&cache.links, links_key, || {
        // The compiled weaver shares the superseded navigation map; it
        // misses next anyway, so drop it now and the old map with it.
        *cache.weaver.lock() = None;
        let linkbase = Linkbase::from_document(links_doc, LINKBASE_PATH)?;
        let nav_map = navigation_map(&linkbase)?;
        let memo = Mutex::new(ResolutionMemo::new(&linkbase));
        Ok((linkbase, Arc::new(nav_map), memo))
    })?;
    let (_, nav_map, memo) = &*links;

    // Validate every locator against the *current* data set before weaving:
    // the data may have changed under a cached linkbase. The memo resolves
    // again only the hrefs whose target document's content changed. An
    // entry is replaced only after its resolution returns, so a memo a
    // panicking validation left poisoned is still sound.
    let resolved = memo
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .validate(sources)?;
    cache.resolved.fetch_add(resolved as u64, Ordering::Relaxed);

    // Site-defined aspects (paper §7 future work): aspects.xml, if present,
    // contributes further concerns to the weave, after the navigation
    // aspect.
    let aspects_doc = sources.get(ASPECTS_PATH).and_then(Resource::document);
    let base_weaver = || {
        let mut weaver = Weaver::new().aspect(navigation_aspect_shared(Arc::clone(nav_map)));
        if let Some(doc) = aspects_doc {
            let site_aspects = parse_aspects(doc)
                .map_err(|e| CoreError::Pipeline(format!("bad {ASPECTS_PATH}: {e}")))?;
            for a in site_aspects {
                weaver.add_aspect(a);
            }
        }
        Ok::<_, CoreError>(weaver)
    };

    // Extra aspects change the weave, so they force a fresh compile.
    if !extra_aspects.is_empty() {
        let mut weaver = base_weaver()?;
        for a in extra_aspects {
            weaver.add_aspect(a.clone());
        }
        return Ok((transform, Arc::new(weaver.compile())));
    }
    // The compiled weaver is a function of the linkbase (navigation aspect)
    // and aspects.xml, so it is keyed by both content hashes.
    let weaver_key = (links_key, aspects_doc.map(Document::content_hash));
    let weaver =
        cache.get_or_compile(&cache.weaver, weaver_key, || Ok(base_weaver()?.compile()))?;
    Ok((transform, weaver))
}

/// Runs the full pipeline: separated sources in, woven site out — the
/// paper's Figure 6 in one call, `Weave::default().run(sources)`.
///
/// # Errors
///
/// * [`CoreError::Pipeline`] when `transform.xml` or `links.xml` is missing
///   or a locator points outside the data set;
/// * template, XLink, and weave errors from the respective stages.
pub fn weave_separated(sources: &Site) -> Result<WovenOutput, CoreError> {
    Weave::default().run(sources)
}

/// One run of the pipeline, with every knob it has. The default is the
/// paper's plain weave: fresh specs, one worker (the caller's thread), no
/// faults, no extra aspects, every page.
///
/// # Examples
///
/// ```
/// use navsep_core::museum::{museum_navigation, paper_museum};
/// use navsep_core::pipeline::{Weave, WeaveCache};
/// use navsep_core::separated::separated_sources;
/// use navsep_core::spec::paper_spec;
/// use navsep_hypermodel::AccessStructureKind;
///
/// let sources = separated_sources(
///     &paper_museum(),
///     &museum_navigation(),
///     &paper_spec(AccessStructureKind::Index),
/// )?;
/// let cache = WeaveCache::new();
/// let weave = Weave { cache: Some(&cache), workers: 2, ..Weave::default() };
/// let first = weave.run(&sources)?; // compiles specs
/// let again = weave.run(&sources)?; // pure cache hits
/// assert_eq!(first.site.len(), again.site.len());
/// assert_eq!(cache.hits(), 3); // transform + links + weaver
/// # Ok::<(), navsep_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct Weave<'a> {
    /// Where compiled specs are fetched from and stored into, so a reweave
    /// of unchanged specs skips every parse. `None` compiles into a fresh
    /// cache that dies with the run.
    pub cache: Option<&'a WeaveCache>,
    /// Threads the pages are dealt to, round-robin. With 1 the pages are
    /// woven on the caller's thread. Must not be zero.
    pub workers: usize,
    /// Consulted at [`fault::sites::WEAVE_PAGE`] before each page weave.
    pub faults: Option<&'a FaultPlan>,
    /// Aspects composed after the navigation aspect and `aspects.xml`
    /// (e.g. a banner or audit concern).
    pub extra_aspects: &'a [Aspect],
    /// Data-document paths (like `guitar.xml`) to weave instead of every
    /// page. Spec compilation and locator validation still cover the whole
    /// site; the output holds only these pages, with no raw passthroughs.
    pub pages: Option<&'a [String]>,
}

impl Default for Weave<'_> {
    fn default() -> Self {
        Weave {
            cache: None,
            workers: 1,
            faults: None,
            extra_aspects: &[],
            pages: None,
        }
    }
}

/// One page's weave result, keyed by page path.
type PageResult = (
    String,
    Result<(Arc<navsep_xml::Document>, WeaveReport), CoreError>,
);

impl Weave<'_> {
    /// Weaves `sources`. The output is the same whatever `workers` is:
    /// pages are assembled in page order, and reports come back in page
    /// order.
    ///
    /// Every page weave runs under `catch_unwind`: a panicking page becomes
    /// [`CoreError::WorkerPanic`] for that page only, and the other pages
    /// are still woven.
    ///
    /// # Errors
    ///
    /// See [`weave_separated`]; injected faults surface as
    /// [`CoreError::Fault`] or [`CoreError::WorkerPanic`], and a `pages`
    /// entry that is not a data document in `sources` as
    /// [`CoreError::Pipeline`]. When several pages fail, the error reported
    /// is the one for the first failing page in page order, whatever
    /// `workers` is.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn run(&self, sources: &Site) -> Result<WovenOutput, CoreError> {
        assert!(self.workers > 0, "need at least one worker");
        // A fresh cache dies here, before any page is woven, so the parsed
        // linkbase and its expanded traversals do not outlive compilation.
        let (transform, weaver) = match self.cache {
            Some(cache) => compile_specs(sources, cache, self.extra_aspects)?,
            None => compile_specs(sources, &WeaveCache::new(), self.extra_aspects)?,
        };

        let work: Vec<(String, &navsep_xml::Document)> = match self.pages {
            Some(paths) => paths
                .iter()
                .map(|path| {
                    let page = data_to_page(path).ok_or_else(|| {
                        CoreError::Pipeline(format!("{path:?} is not a data-document path"))
                    })?;
                    let doc = sources
                        .get(path)
                        .and_then(Resource::document)
                        .ok_or_else(|| {
                            CoreError::Pipeline(format!("no data document at {path:?}"))
                        })?;
                    Ok((page, doc))
                })
                .collect::<Result<_, CoreError>>()?,
            None => sources
                .iter()
                .filter(|(path, _)| {
                    *path != LINKBASE_PATH && *path != TRANSFORM_PATH && *path != ASPECTS_PATH
                })
                .filter_map(|(path, res)| Some((data_to_page(path)?, res.document()?)))
                .collect(),
        };

        let weave_slice = |first: usize, step: usize| {
            work.iter()
                .skip(first)
                .step_by(step)
                .map(|(page, doc)| -> PageResult {
                    let woven = weave_page_isolated(page, doc, &transform, &weaver, self.faults);
                    (page.clone(), woven)
                })
        };
        let workers = self.workers.min(work.len()).max(1);
        let results: BTreeMap<String, _> = if workers == 1 {
            weave_slice(0, 1).collect()
        } else {
            // Deal the pages round-robin; each worker weaves its slice
            // independently (pages are independent).
            std::thread::scope(|scope| {
                let weave_slice = &weave_slice;
                let handles: Vec<_> = (0..workers)
                    .map(|w| scope.spawn(move || weave_slice(w, workers).collect::<Vec<_>>()))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|handle| {
                        // Unreachable while the per-page catch_unwind holds,
                        // but a worker lost some other way must not abort the
                        // process: it surfaces as a first-ordered error.
                        handle.join().unwrap_or_else(|payload| {
                            vec![(
                                String::new(),
                                Err(CoreError::WorkerPanic {
                                    path: "<worker>".to_string(),
                                    message: panic_message(payload.as_ref()),
                                }),
                            )]
                        })
                    })
                    .collect()
            })
        };

        // `BTreeMap` order makes the first error the one of the first
        // failing page in page order.
        let mut site = Site::new();
        let mut reports = Vec::with_capacity(results.len());
        for (path, result) in results {
            let (doc, report) = result?;
            site.put_shared_document(path, doc);
            reports.push(report);
        }
        // Raw resources (the CSS) pass through untouched, media type and all.
        if self.pages.is_none() {
            for (path, res) in sources.iter() {
                if let Resource::Raw { .. } = res {
                    site.put_resource(path, res.clone());
                }
            }
        }
        Ok(WovenOutput { site, reports })
    }
}

/// Transforms and weaves one page with panic isolation: a panic anywhere in
/// the transform or weave (organic or injected) becomes
/// [`CoreError::WorkerPanic`] for this page instead of unwinding the
/// worker.
fn weave_page_isolated(
    page_path: &str,
    data_doc: &navsep_xml::Document,
    transform: &Transform,
    weaver: &CompiledWeaver,
    faults: Option<&FaultPlan>,
) -> Result<(Arc<navsep_xml::Document>, WeaveReport), CoreError> {
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        fault::fire(faults, fault::sites::WEAVE_PAGE, page_path).map_err(CoreError::from)?;
        let base = transform.apply(data_doc)?;
        let (woven, report) = weaver.weave_page(page_path, &base)?;
        // Shared from here on, so the results held until assembly cost a
        // pointer per page, not a document.
        Ok((Arc::new(woven), report))
    }));
    match attempt {
        Ok(result) => result,
        Err(payload) => Err(CoreError::WorkerPanic {
            path: page_path.to_string(),
            message: panic_message(payload.as_ref()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::museum::{museum_navigation, paper_museum};
    use crate::separated::separated_sources;
    use crate::spec::paper_spec;
    use navsep_hypermodel::AccessStructureKind;

    fn woven(access: AccessStructureKind) -> WovenOutput {
        let sources =
            separated_sources(&paper_museum(), &museum_navigation(), &paper_spec(access)).unwrap();
        weave_separated(&sources).unwrap()
    }

    fn page_xml(out: &WovenOutput, path: &str) -> String {
        out.site
            .get(path)
            .unwrap()
            .document()
            .unwrap()
            .to_pretty_xml()
    }

    #[test]
    fn weaves_navigation_into_pages() {
        let out = woven(AccessStructureKind::IndexedGuidedTour);
        let guitar = page_xml(&out, "guitar.html");
        assert!(guitar.contains("<h1>Guitar</h1>"), "{guitar}");
        assert!(guitar.contains("rel=\"next\""), "{guitar}");
        assert!(guitar.contains("rel=\"up\""), "{guitar}");
        assert!(guitar.contains("guernica.html"), "{guitar}");
    }

    #[test]
    fn index_page_lists_members_in_context_order() {
        let out = woven(AccessStructureKind::Index);
        let picasso = page_xml(&out, "picasso.html");
        let guitar = picasso.find("guitar.html").unwrap();
        let guernica = picasso.find("guernica.html").unwrap();
        let avignon = picasso.find("avignon.html").unwrap();
        assert!(guitar < guernica && guernica < avignon, "{picasso}");
    }

    #[test]
    fn css_passes_through() {
        let out = woven(AccessStructureKind::Index);
        let css = out.site.get(crate::layout::CSS_PATH).unwrap();
        // Media type is preserved through the passthrough.
        assert_eq!(css.media_type(), navsep_web::MediaType::Css);
    }

    #[test]
    fn reports_cover_every_page() {
        let out = woven(AccessStructureKind::Index);
        // 6 pages (4 paintings + 2 painters).
        assert_eq!(out.reports.len(), 6);
        // Every page with navigation had exactly one application.
        for r in &out.reports {
            assert_eq!(r.applications(), 1, "{}", r.page);
        }
    }

    #[test]
    fn missing_linkbase_is_pipeline_error() {
        let mut sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        sources.remove(LINKBASE_PATH);
        assert!(matches!(
            weave_separated(&sources),
            Err(CoreError::Pipeline(msg)) if msg.contains("links.xml")
        ));
    }

    #[test]
    fn dangling_locator_detected_before_weaving() {
        let mut sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        sources.remove("guitar.xml");
        assert!(matches!(
            weave_separated(&sources),
            Err(CoreError::XLink(_))
        ));
    }

    #[test]
    fn extra_aspects_compose_with_navigation() {
        let sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        let banner = Aspect::new("banner").with_precedence(-1).rule(
            Pointcut::Element("body".into()),
            AdvicePosition::Prepend,
            vec![ElementBuilder::new("div")
                .attr("class", "banner")
                .text("Museum of navsep")],
        );
        let out = Weave {
            extra_aspects: &[banner],
            ..Weave::default()
        }
        .run(&sources)
        .unwrap();
        let xml = page_xml(&out, "guitar.html");
        assert!(xml.contains("Museum of navsep"));
        // Banner prepended, navigation appended.
        let banner_pos = xml.find("banner").unwrap();
        let nav_pos = xml.find("navigation").unwrap();
        assert!(banner_pos < nav_pos);
    }

    #[test]
    fn cached_weave_equals_uncached() {
        let sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::IndexedGuidedTour),
        )
        .unwrap();
        let cache = WeaveCache::new();
        let uncached = weave_separated(&sources).unwrap();
        let cached = Weave {
            cache: Some(&cache),
            ..Weave::default()
        };
        let first = cached.run(&sources).unwrap();
        let again = cached.run(&sources).unwrap();
        crate::equiv::assert_site_equivalent(&uncached.site, &first.site).unwrap();
        crate::equiv::assert_site_equivalent(&uncached.site, &again.site).unwrap();
        // First cached run compiles (transform + links + compiled weaver),
        // the second is pure hits.
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn cache_distinguishes_linkbases() {
        let store = paper_museum();
        let nav = museum_navigation();
        let cache = WeaveCache::new();
        let index =
            separated_sources(&store, &nav, &paper_spec(AccessStructureKind::Index)).unwrap();
        let igt = separated_sources(
            &store,
            &nav,
            &paper_spec(AccessStructureKind::IndexedGuidedTour),
        )
        .unwrap();
        let cached = Weave {
            cache: Some(&cache),
            ..Weave::default()
        };
        let a = cached.run(&index).unwrap();
        let b = cached.run(&igt).unwrap();
        // Same transform (1 hit on the second weave); different linkbase
        // (fresh links + weaver compilations, no poisoned reuse).
        assert!(!crate::equiv::dom_equivalent(
            a.site.get("guitar.html").unwrap().document().unwrap(),
            b.site.get("guitar.html").unwrap().document().unwrap(),
        ));
        assert_eq!(cache.misses(), 5);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn a_spec_edit_recompiles_only_what_depends_on_it() {
        let store = paper_museum();
        let nav = museum_navigation();
        let index =
            separated_sources(&store, &nav, &paper_spec(AccessStructureKind::Index)).unwrap();
        let igt = separated_sources(
            &store,
            &nav,
            &paper_spec(AccessStructureKind::IndexedGuidedTour),
        )
        .unwrap();
        let cache = WeaveCache::new();
        let cached = Weave {
            cache: Some(&cache),
            ..Weave::default()
        };
        let counts = || (cache.misses(), cache.hits());
        cached.run(&index).unwrap();
        assert_eq!(counts(), (3, 0));
        assert_eq!(cache.entries(), 3);

        // transform.xml only: one recompile; links and weaver slots hit.
        let mut restyled = index.clone();
        let mut transform = restyled
            .get(TRANSFORM_PATH)
            .unwrap()
            .document()
            .unwrap()
            .clone();
        let root = transform.root_element().unwrap();
        transform.set_attribute(root, "version", "2");
        restyled.put_document(TRANSFORM_PATH, transform);
        cached.run(&restyled).unwrap();
        assert_eq!(counts(), (4, 2));
        assert!(cache.entries() <= 3);

        // links.xml only: links and weaver recompile; transform hits.
        let mut relinked = restyled.clone();
        relinked.put_resource(LINKBASE_PATH, igt.get(LINKBASE_PATH).unwrap().clone());
        cached.run(&relinked).unwrap();
        assert_eq!(counts(), (6, 3));
        assert!(cache.entries() <= 3);
    }

    #[test]
    fn cached_weave_still_validates_data_set() {
        // A cached linkbase must not skip locator validation: remove a data
        // document after priming the cache and the reweave must fail.
        let mut sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        let cache = WeaveCache::new();
        let cached = Weave {
            cache: Some(&cache),
            ..Weave::default()
        };
        cached.run(&sources).unwrap();
        sources.remove("guitar.xml");
        assert!(matches!(cached.run(&sources), Err(CoreError::XLink(_))));
    }

    #[test]
    fn cached_weave_composes_extra_aspects() {
        let sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        let banner = Aspect::new("banner").with_precedence(-1).rule(
            Pointcut::Element("body".into()),
            AdvicePosition::Prepend,
            vec![ElementBuilder::new("div").attr("class", "banner").text("B")],
        );
        let cache = WeaveCache::new();
        let out = Weave {
            cache: Some(&cache),
            extra_aspects: &[banner],
            ..Weave::default()
        }
        .run(&sources)
        .unwrap();
        assert!(page_xml(&out, "guitar.html").contains("class=\"banner\""));
    }

    #[test]
    fn navigation_map_shape() {
        let sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::IndexedGuidedTour),
        )
        .unwrap();
        let doc = sources.get(LINKBASE_PATH).unwrap().document().unwrap();
        let lb = Linkbase::from_document(doc, LINKBASE_PATH).unwrap();
        let map = navigation_map(&lb).unwrap();
        // Entry pages hold the index items.
        assert_eq!(map["picasso.html"].index_items.len(), 3);
        // Guitar (first member): next + up, no prev.
        let guitar = &map["guitar.html"];
        assert!(guitar.anchors.iter().any(|a| a.rel == "next"));
        assert!(guitar.anchors.iter().any(|a| a.rel == "up"));
        assert!(!guitar.anchors.iter().any(|a| a.rel == "prev"));
        // Guernica (middle): prev + next + up.
        let guernica = &map["guernica.html"];
        assert_eq!(guernica.anchors.len(), 3);
    }
}

#[cfg(test)]
mod aspects_xml_tests {
    use super::*;
    use crate::museum::{museum_navigation, paper_museum};
    use crate::separated::separated_sources;
    use crate::spec::paper_spec;
    use navsep_hypermodel::AccessStructureKind;
    use navsep_xml::Document;

    #[test]
    fn aspects_xml_is_loaded_and_woven() {
        let mut sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        sources.put_document(
            ASPECTS_PATH,
            Document::parse(
                r#"<aspects>
  <aspect name="banner" precedence="-5">
    <rule pointcut='element("body")' position="prepend">
      <div class="banner">Museum of navsep</div>
    </rule>
  </aspect>
</aspects>"#,
            )
            .unwrap(),
        );
        let out = weave_separated(&sources).unwrap();
        let xml = out
            .site
            .get("guitar.html")
            .unwrap()
            .document()
            .unwrap()
            .to_xml_string();
        assert!(xml.contains("Museum of navsep"));
        // aspects.xml must not be transformed into a page.
        assert!(out.site.get("aspects.html").is_none());
    }

    #[test]
    fn malformed_aspects_xml_is_reported() {
        let mut sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        sources.put_document(
            ASPECTS_PATH,
            Document::parse("<aspects><aspect/></aspects>").unwrap(),
        );
        assert!(matches!(
            weave_separated(&sources),
            Err(CoreError::Pipeline(msg)) if msg.contains("aspects.xml")
        ));
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::equiv::assert_site_equivalent;
    use crate::museum::{generated_museum, museum_navigation};
    use crate::separated::separated_sources;
    use crate::spec::paper_spec;
    use navsep_hypermodel::AccessStructureKind;

    #[test]
    fn parallel_output_equals_sequential() {
        let store = generated_museum(3, 7, 2, 11);
        let nav = museum_navigation();
        let sources = separated_sources(
            &store,
            &nav,
            &paper_spec(AccessStructureKind::IndexedGuidedTour),
        )
        .unwrap();
        let seq = weave_separated(&sources).unwrap();
        for workers in [1usize, 2, 4, 8] {
            let par = Weave {
                workers,
                ..Weave::default()
            }
            .run(&sources)
            .unwrap();
            assert_site_equivalent(&seq.site, &par.site)
                .unwrap_or_else(|e| panic!("workers={workers}: {e}"));
            assert_eq!(par.reports.len(), seq.reports.len());
        }
    }

    #[test]
    fn parallel_reports_are_page_ordered() {
        let store = generated_museum(2, 3, 2, 1);
        let nav = museum_navigation();
        let sources =
            separated_sources(&store, &nav, &paper_spec(AccessStructureKind::Index)).unwrap();
        let par = Weave {
            workers: 3,
            ..Weave::default()
        }
        .run(&sources)
        .unwrap();
        let pages: Vec<&str> = par.reports.iter().map(|r| r.page.as_str()).collect();
        let mut sorted = pages.clone();
        sorted.sort();
        assert_eq!(pages, sorted);
    }

    #[test]
    fn parallel_propagates_errors() {
        let store = generated_museum(1, 2, 2, 1);
        let nav = museum_navigation();
        let mut sources =
            separated_sources(&store, &nav, &paper_spec(AccessStructureKind::Index)).unwrap();
        sources.remove(TRANSFORM_PATH);
        let weave = Weave {
            workers: 4,
            ..Weave::default()
        };
        assert!(weave.run(&sources).is_err());
    }

    #[test]
    fn page_subset_weaves_only_those_pages() {
        let store = generated_museum(2, 3, 2, 5);
        let nav = museum_navigation();
        let sources =
            separated_sources(&store, &nav, &paper_spec(AccessStructureKind::Index)).unwrap();
        let full = weave_separated(&sources).unwrap();
        let data: Vec<String> = sources
            .iter()
            .map(|(path, _)| path.to_string())
            .filter(|path| path.starts_with("painting-"))
            .take(2)
            .collect();
        for workers in [1, 2] {
            let subset = Weave {
                workers,
                pages: Some(&data),
                ..Weave::default()
            }
            .run(&sources)
            .unwrap();
            assert_eq!(subset.site.len(), data.len(), "no passthroughs");
            assert_eq!(subset.reports.len(), data.len());
            for (path, res) in subset.site.iter() {
                assert_eq!(res.to_bytes(), full.site.get(path).unwrap().to_bytes());
            }
        }
        let bad = [
            crate::layout::CSS_PATH.to_string(),
            "missing.xml".to_string(),
        ];
        for path in &bad {
            let weave = Weave {
                pages: Some(std::slice::from_ref(path)),
                ..Weave::default()
            };
            assert!(matches!(weave.run(&sources), Err(CoreError::Pipeline(_))));
        }
    }
}
