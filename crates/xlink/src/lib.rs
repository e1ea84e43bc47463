//! # navsep-xlink — links as a separate document
//!
//! An XLink 1.0 processor: the global attribute vocabulary, simple and
//! extended links, arc expansion over label groups, linkbase loading, and
//! cross-document endpoint resolution via XPointer.
//!
//! This crate is the concrete mechanism behind the paper's §6 proposal:
//! *"we can obtain data in one or more XML files, on the one hand, and links
//! in another XML file, on the other hand."* The "another XML file" is a
//! [`Linkbase`]; the navigation weaver in `navsep-aspect`/`navsep-core`
//! consumes its [`Traversal`]s.
//!
//! ## Quick start
//!
//! ```
//! use navsep_xml::Document;
//! use navsep_xlink::{Linkbase, Resolver};
//! use std::collections::BTreeMap;
//!
//! // Data lives in its own files…
//! let mut site = BTreeMap::new();
//! site.insert(
//!     "picasso.xml".to_string(),
//!     Document::parse(r#"<painter><painting id="guitar"/></painter>"#)?,
//! );
//!
//! // …links live in links.xml (the linkbase).
//! let links = Document::parse(r#"<links xmlns:xlink="http://www.w3.org/1999/xlink"
//!     xlink:type="extended">
//!   <l xlink:type="locator" xlink:label="painter" xlink:href="picasso.xml"/>
//!   <l xlink:type="locator" xlink:label="work" xlink:href="picasso.xml#guitar"/>
//!   <go xlink:type="arc" xlink:from="painter" xlink:to="work"/>
//! </links>"#)?;
//!
//! let lb = Linkbase::from_document(&links, "links.xml")?;
//! let resolved = Resolver::new(&site, "links.xml").resolve(&lb)?;
//! assert_eq!(resolved.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrs;
pub mod error;
pub mod href;
pub mod link;
pub mod linkbase;
pub mod resolve;

pub use attrs::{Actuate, LinkType, Show, XLinkAttrs, LINKBASE_ARCROLE, XLINK_NS};
pub use error::XLinkError;
pub use href::Href;
pub use link::{
    simple_link, ArcRule, Endpoint, ExtendedLink, Locator, Resource, SimpleLink, Traversal,
};
pub use linkbase::Linkbase;
pub use resolve::{
    DocumentProvider, ResolutionMemo, ResolvedEndpoint, ResolvedTraversal, Resolver,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Linkbase>();
        assert_send_sync::<Traversal>();
        assert_send_sync::<Href>();
        assert_send_sync::<XLinkError>();
        assert_send_sync::<ResolutionMemo>();
    }
}
