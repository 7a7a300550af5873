//! Serialization of buffered subtrees to output tokens.
//!
//! When the evaluator outputs a variable binding (`$x` or `$x/axis::ν`),
//! the buffered subtree is emitted to the output stream. Marked
//! (semantically deleted) nodes are never emitted; within output subtrees
//! every live node carries roles (the `dos::node()` dependency guarantees
//! it), so marked nodes can only be stale structural leftovers.

use crate::node::{BufKind, BufNodeId, BufferTree};
use gcx_xml::{TagInterner, XmlToken, XmlWriter};
use std::io::{self, Write};

impl BufferTree {
    /// Writes the subtree rooted at `id` to `w` as XML.
    pub fn write_subtree<W: Write>(
        &self,
        id: BufNodeId,
        tags: &TagInterner,
        w: &mut XmlWriter<W>,
    ) -> io::Result<()> {
        if self.is_marked(id) {
            return Ok(());
        }
        match self.kind(id) {
            BufKind::Root => {
                let mut c = self.first_child(id);
                while let Some(x) = c {
                    self.write_subtree(x, tags, w)?;
                    c = self.next_sibling(x);
                }
                Ok(())
            }
            BufKind::Text(sp) => w.text(self.span_str(*sp)),
            BufKind::Element(tag) => {
                let tag = *tag;
                w.open(tag, tags)?;
                let mut c = self.first_child(id);
                while let Some(x) = c {
                    self.write_subtree(x, tags, w)?;
                    c = self.next_sibling(x);
                }
                w.close(tag, tags)
            }
        }
    }

    /// Collects the subtree as tokens (tests, traces).
    pub fn subtree_tokens(&self, id: BufNodeId, out: &mut Vec<XmlToken>) {
        if self.is_marked(id) {
            return;
        }
        match self.kind(id) {
            BufKind::Root => {
                let mut c = self.first_child(id);
                while let Some(x) = c {
                    self.subtree_tokens(x, out);
                    c = self.next_sibling(x);
                }
            }
            BufKind::Text(sp) => out.push(XmlToken::Text(self.span_str(*sp).to_string())),
            BufKind::Element(tag) => {
                let tag = *tag;
                out.push(XmlToken::Open(tag));
                let mut c = self.first_child(id);
                while let Some(x) = c {
                    self.subtree_tokens(x, out);
                    c = self.next_sibling(x);
                }
                out.push(XmlToken::Close(tag));
            }
        }
    }

    /// The string value of a buffered node (XPath `string()`: all text in
    /// its subtree). When that is one arena span — a text node, or an
    /// element whose chain of only children ends in a text node — the span
    /// is borrowed in place; otherwise the text is collected into
    /// `scratch` (cleared first), which allocates only to grow it.
    pub fn string_value_ref<'a>(&'a self, id: BufNodeId, scratch: &'a mut String) -> &'a str {
        let mut at = id;
        loop {
            if self.is_marked(at) {
                return "";
            }
            match self.kind(at) {
                BufKind::Text(sp) => return self.span_str(*sp),
                _ => match self.first_child(at) {
                    None => return "",
                    Some(c) if self.next_sibling(c).is_none() => at = c,
                    Some(_) => break,
                },
            }
        }
        scratch.clear();
        self.collect_text(at, scratch);
        scratch
    }

    fn collect_text(&self, id: BufNodeId, out: &mut String) {
        if self.is_marked(id) {
            return;
        }
        if let BufKind::Text(sp) = self.kind(id) {
            out.push_str(self.span_str(*sp));
            return;
        }
        let mut c = self.first_child(id);
        while let Some(x) = c {
            self.collect_text(x, out);
            c = self.next_sibling(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_projection::Role;
    use gcx_xml::TagInterner;

    fn build() -> (BufferTree, TagInterner, BufNodeId) {
        let mut tags = TagInterner::new();
        let book = tags.intern("book");
        let title = tags.intern("title");
        let mut b = BufferTree::new(4, &[]);
        let n1 = b.open_element(BufferTree::ROOT, book).unwrap();
        b.add_role(n1, Role(0));
        let n2 = b.open_element(n1, title).unwrap();
        b.add_role(n2, Role(0));
        let t = b.add_text(n2, "T<&ext").unwrap();
        b.add_role(t, Role(0));
        b.finish(n2);
        b.finish(n1);
        (b, tags, n1)
    }

    #[test]
    fn serializes_with_escaping() {
        let (b, tags, n1) = build();
        let mut out = Vec::new();
        let mut w = XmlWriter::new(&mut out);
        b.write_subtree(n1, &tags, &mut w).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "<book><title>T&lt;&amp;ext</title></book>"
        );
    }

    #[test]
    fn tokens_roundtrip() {
        let (b, tags, n1) = build();
        let mut toks = Vec::new();
        b.subtree_tokens(n1, &mut toks);
        assert_eq!(toks.len(), 5);
        let _ = tags;
    }

    #[test]
    fn string_value_concatenates() {
        let (b, _tags, n1) = build();
        let mut scratch = String::new();
        assert_eq!(b.string_value_ref(n1, &mut scratch), "T<&ext");
        assert!(
            scratch.is_empty(),
            "a single text span is borrowed in place"
        );
    }

    #[test]
    fn string_value_collects_split_text_into_scratch() {
        let mut tags = TagInterner::new();
        let x = tags.intern("x");
        let y = tags.intern("y");
        let mut b = BufferTree::new(1, &[]);
        let n = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(n, Role(0));
        for part in ["a", "b"] {
            let t = b.add_text(n, part).unwrap();
            b.add_role(t, Role(0));
        }
        let e = b.open_element(n, y).unwrap();
        b.add_role(e, Role(0));
        let t = b.add_text(e, "c").unwrap();
        b.add_role(t, Role(0));
        let empty = b.open_element(n, y).unwrap();
        b.add_role(empty, Role(0));
        let mut scratch = String::from("stale");
        assert_eq!(b.string_value_ref(n, &mut scratch), "abc");
        assert_eq!(scratch, "abc");
        assert_eq!(b.string_value_ref(e, &mut scratch), "c");
        assert_eq!(b.string_value_ref(empty, &mut scratch), "");
    }

    #[test]
    fn marked_nodes_are_skipped() {
        let mut tags = TagInterner::new();
        let x = tags.intern("x");
        let y = tags.intern("y");
        let mut b = BufferTree::new(4, &[]);
        let n1 = b.open_element(BufferTree::ROOT, x).unwrap();
        b.add_role(n1, Role(0));
        let dead = b.open_element(n1, y).unwrap();
        b.add_role(dead, Role(1));
        b.pin(dead, BufferTree::ROOT); // keep it navigable
        b.finish(dead);
        b.sign_off(dead, Role(1), 1).unwrap();
        // dead is pinned: not purged, not marked (pins block gc) — unpin
        // purges it.
        b.unpin(dead, BufferTree::ROOT);
        b.finish(n1);
        let mut toks = Vec::new();
        b.subtree_tokens(n1, &mut toks);
        assert_eq!(toks.len(), 2, "only <x></x> remains");
    }
}
