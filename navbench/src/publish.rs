//! The publish path, timed from outside: [`SitePublisher::commit`] per
//! batch and, in a traced run, a replay of the same batch through the
//! public calls `commit` makes, each one timed.

use crate::fixture::{Batch, Museum};
use crate::stats::ms;
use navsep_aspect::{CompiledWeaver, Weaver};
use navsep_core::layout::{data_to_page, ASPECTS_PATH, LINKBASE_PATH, TRANSFORM_PATH};
use navsep_core::pipeline::{navigation_aspect_shared, navigation_map};
use navsep_core::publish::{PublishOutcome, SitePublisher, SourceEdit};
use navsep_core::CoreError;
use navsep_style::Transform;
use navsep_web::{IncrementalPublish, Resource, ShardedSiteStore, Site};
use navsep_xlink::{Linkbase, Resolver};
use navsep_xml::Document;
use std::sync::Arc;
use std::time::Instant;

/// One timed commit.
#[derive(Debug)]
pub struct Commit {
    /// `true` for a `transform.xml` / `links.xml` edit (the full reweave).
    pub spec: bool,
    /// Paintings the batch edited (0 for a spec batch).
    pub batch_size: usize,
    /// Wall time of `SitePublisher::commit`.
    pub ms: f64,
    /// What the commit returned.
    pub outcome: Result<PublishOutcome, String>,
    /// The staged documents, for a traced replay.
    pub edits: Vec<(String, Document)>,
    /// `(page, revision)` of each painting edit.
    pub revisions: Vec<(String, u64)>,
}

/// The author: a [`SitePublisher`] plus the revision counter that makes
/// every painting edit distinct.
#[derive(Debug)]
pub struct Author {
    /// The publisher under test.
    pub publisher: SitePublisher,
    museum: Arc<Museum>,
    next_rev: u64,
}

impl Author {
    /// An author over `sources`, publishing into `store`. Nothing is
    /// published until the first commit.
    pub fn new(museum: Arc<Museum>, sources: Site, store: Arc<ShardedSiteStore>) -> Author {
        Author {
            publisher: SitePublisher::new(sources, store),
            museum,
            next_rev: 1,
        }
    }

    /// Commits whatever is staged (the first full weave when nothing is).
    pub fn commit_staged(&mut self) -> Commit {
        self.timed(true, 0, Vec::new(), Vec::new())
    }

    /// Stages `batch` and commits it, timing only the commit.
    pub fn commit(&mut self, batch: &Batch) -> Commit {
        let mut edits = Vec::new();
        let mut revisions = Vec::new();
        match batch {
            Batch::Data(paintings) => {
                for &i in paintings {
                    let rev = self.next_rev;
                    self.next_rev += 1;
                    let path = self.museum.data_paths[i].clone();
                    let page = data_to_page(&path).expect("paintings are data documents");
                    edits.push((path, self.museum.edited_painting(i, rev)));
                    revisions.push((page, rev));
                }
            }
            Batch::Transform(v) => edits.push((
                TRANSFORM_PATH.to_string(),
                self.museum.transform(*v).clone(),
            )),
            Batch::Links(v) => {
                edits.push((LINKBASE_PATH.to_string(), self.museum.linkbase(*v).clone()))
            }
        }
        for (path, doc) in &edits {
            self.publisher
                .stage(SourceEdit::put_document(path.clone(), doc.clone()));
        }
        let spec = !matches!(batch, Batch::Data(_));
        let size = if spec { 0 } else { edits.len() };
        self.timed(spec, size, edits, revisions)
    }

    fn timed(
        &mut self,
        spec: bool,
        batch_size: usize,
        edits: Vec<(String, Document)>,
        revisions: Vec<(String, u64)>,
    ) -> Commit {
        let start = Instant::now();
        let outcome = self.publisher.commit();
        Commit {
            spec,
            batch_size,
            ms: ms(start.elapsed()),
            outcome: outcome.map_err(|e| e.to_string()),
            edits,
            revisions,
        }
    }
}

/// Self time of each call a commit makes, for one replayed batch, in ms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// `Site::clone` of the sources.
    pub sources_clone: f64,
    /// `Transform::from_document`, `Linkbase::from_document`,
    /// `navigation_map` and `Weaver::compile` (spec batches only: a data
    /// batch hits the commit's spec cache).
    pub compile: f64,
    /// `Resolver::resolve` over `links.xml`.
    pub resolve: f64,
    /// `Site::clone` of the last woven site (data batches only).
    pub woven_clone: f64,
    /// `Transform::apply` over the rewoven pages.
    pub transform: f64,
    /// `CompiledWeaver::weave_page` over the rewoven pages.
    pub weave: f64,
    /// `Resource::to_bytes` of the rewoven pages.
    pub serialize: f64,
    /// `try_publish_incremental` minus the serialization it does.
    pub store_publish: f64,
    /// Dropping the replaced sources and woven site.
    pub drop: f64,
}

impl Stages {
    /// Sum of the parts.
    pub fn total(&self) -> f64 {
        self.sources_clone
            + self.compile
            + self.resolve
            + self.woven_clone
            + self.transform
            + self.weave
            + self.serialize
            + self.store_publish
            + self.drop
    }
}

/// A copy of the publisher's state that replays each committed batch
/// through the same public calls `SitePublisher::commit` makes — timed one
/// by one — into a store of its own.
#[derive(Debug)]
pub struct Shadow {
    woven: Site,
    store: ShardedSiteStore,
    specs: Specs,
}

#[derive(Debug)]
struct Specs {
    transform: Transform,
    linkbase: Linkbase,
    weaver: CompiledWeaver,
}

impl Specs {
    fn compile(sources: &Site) -> Result<Specs, CoreError> {
        assert!(
            sources.get(ASPECTS_PATH).is_none(),
            "the museum has no aspects.xml; the replay does not weave one"
        );
        let transform = Transform::from_document(document(sources, TRANSFORM_PATH)?)?;
        let linkbase = Linkbase::from_document(document(sources, LINKBASE_PATH)?, LINKBASE_PATH)?;
        let map = navigation_map(&linkbase)?;
        let weaver = Weaver::new()
            .aspect(navigation_aspect_shared(Arc::new(map)))
            .compile();
        Ok(Specs {
            transform,
            linkbase,
            weaver,
        })
    }
}

fn document<'a>(sources: &'a Site, path: &str) -> Result<&'a Document, CoreError> {
    sources
        .get(path)
        .and_then(Resource::document)
        .ok_or_else(|| CoreError::Pipeline(format!("missing {path}")))
}

impl Shadow {
    /// A shadow of `publisher` as it stands, with a store of the same
    /// shape.
    ///
    /// # Errors
    ///
    /// The sources' specs do not compile.
    pub fn of(
        publisher: &SitePublisher,
        shards: usize,
        retention: usize,
    ) -> Result<Shadow, CoreError> {
        let woven = publisher.store().to_site();
        let store = ShardedSiteStore::with_retention(shards, retention);
        store.publish_incremental(&woven);
        let specs = Specs::compile(publisher.sources())?;
        Ok(Shadow {
            woven,
            store,
            specs,
        })
    }

    /// Replays one committed batch, returning its stage times and what the
    /// shadow store did.
    ///
    /// # Errors
    ///
    /// Any pipeline error (the real commit of the same batch succeeded, so
    /// an error means the replay has drifted from `commit`).
    pub fn replay(
        &mut self,
        commit: &Commit,
        publisher: &SitePublisher,
    ) -> Result<(Stages, IncrementalPublish), CoreError> {
        let mut t = Stages::default();
        let start = Instant::now();
        let mut next = publisher.sources().clone();
        t.sources_clone = ms(start.elapsed());
        for (path, doc) in &commit.edits {
            next.put_document(path.clone(), doc.clone());
        }
        if commit.spec {
            let start = Instant::now();
            self.specs = Specs::compile(&next)?;
            t.compile = ms(start.elapsed());
        }
        let start = Instant::now();
        Resolver::new(&next, LINKBASE_PATH).resolve(&self.specs.linkbase)?;
        t.resolve = ms(start.elapsed());
        let (mut woven, to_weave): (Site, Vec<String>) = if commit.spec {
            let mut woven = Site::new();
            let mut pages = Vec::new();
            for (path, res) in next.iter() {
                match res {
                    Resource::Raw { .. } => woven.put_resource(path, res.clone()),
                    Resource::Document { .. }
                        if path != LINKBASE_PATH && path != TRANSFORM_PATH =>
                    {
                        if data_to_page(path).is_some() {
                            pages.push(path.to_string());
                        }
                    }
                    Resource::Document { .. } => {}
                }
            }
            (woven, pages)
        } else {
            let start = Instant::now();
            let woven = self.woven.clone();
            t.woven_clone = ms(start.elapsed());
            (woven, commit.edits.iter().map(|(p, _)| p.clone()).collect())
        };
        let mut pages = Vec::with_capacity(to_weave.len());
        for path in &to_weave {
            let page_path = data_to_page(path).expect("woven sources are data documents");
            let doc = document(&next, path)?;
            let start = Instant::now();
            let base = self.specs.transform.apply(doc)?;
            t.transform += ms(start.elapsed());
            let start = Instant::now();
            let (page, _report) = self.specs.weaver.weave_page(&page_path, &base)?;
            t.weave += ms(start.elapsed());
            woven.put_page(page_path.clone(), page);
            pages.push(page_path);
        }
        for page in &pages {
            let resource = woven.get(page).expect("just woven");
            let start = Instant::now();
            std::hint::black_box(resource.to_bytes());
            t.serialize += ms(start.elapsed());
        }
        let start = Instant::now();
        let published = self.store.try_publish_incremental(&woven)?;
        t.store_publish = ms(start.elapsed()) - t.serialize;
        let start = Instant::now();
        drop(next);
        drop(std::mem::replace(&mut self.woven, woven));
        t.drop = ms(start.elapsed());
        Ok((t, published))
    }

    /// The shadow store, to compare against the real one.
    pub fn store(&self) -> &ShardedSiteStore {
        &self.store
    }
}
