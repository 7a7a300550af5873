//! Theorem 1 differential testing: for every (query, document) pair, the
//! GCX engine over the rewritten query and projected stream produces the
//! same result as the in-memory oracle over the original query — and the
//! other two engine strategies agree as well. Additionally the paper's
//! safety requirements hold: all role removals defined, all roles
//! returned.

use gcx::query::{compile, CompileOptions};
use gcx::xml::TagInterner;

/// Runs all four engines and the two compile modes; asserts agreement and
/// safety. Returns the common output.
fn check_all(query: &str, doc: &str) -> String {
    let mut reference: Option<String> = None;
    for copts in [CompileOptions::default(), CompileOptions::plain()] {
        let mut tags = TagInterner::new();
        let compiled = compile(query, &mut tags, copts)
            .unwrap_or_else(|e| panic!("compile failed for {query}: {e}"));
        type RunResult = Result<(Vec<u8>, Option<bool>), String>;
        let runs: Vec<(&str, RunResult)> = vec![
            ("dom", {
                let mut out = Vec::new();
                gcx::run_dom(&compiled, &mut tags, doc.as_bytes(), &mut out)
                    .map(|r| (out, r.safety))
                    .map_err(|e| e.to_string())
            }),
            ("gcx", {
                let mut out = Vec::new();
                gcx::run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut out)
                    .map(|r| (out, r.safety))
                    .map_err(|e| e.to_string())
            }),
            ("nogc", {
                let mut out = Vec::new();
                gcx::run_no_gc_streaming(&compiled, &mut tags, doc.as_bytes(), &mut out)
                    .map(|r| (out, r.safety))
                    .map_err(|e| e.to_string())
            }),
            ("static", {
                let mut out = Vec::new();
                gcx::run_static_projection(&compiled, &mut tags, doc.as_bytes(), &mut out)
                    .map(|r| (out, r.safety))
                    .map_err(|e| e.to_string())
            }),
        ];
        for (name, res) in runs {
            let (out, safety) = res.unwrap_or_else(|e| panic!("{name} failed on {query}: {e}"));
            let out = String::from_utf8(out).unwrap();
            if name == "gcx" {
                assert_eq!(
                    safety,
                    Some(true),
                    "role accounting violated for {query} on {doc}"
                );
            }
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(
                    r, &out,
                    "{name} (opts {copts:?}) disagrees on {query} over {doc}"
                ),
            }
        }
    }
    reference.unwrap()
}

const DOC_BIB: &str = "<bib>\
    <book><title>T1</title><author>A</author><price>12</price></book>\
    <book><title>T2</title><author>B</author></book>\
    <cd><title>T3</title><label>L</label></cd>\
    <book><title>T4</title><price>7</price><price>9</price></book>\
</bib>";

const DOC_NESTED: &str =
    "<a><a><b><b>x</b></b><c><b>y</b></c></a><b>z</b><d><e><b>w</b></e></d></a>";

const DOC_PEOPLE: &str = "<db>\
    <person><id>1</id><name>Ann</name><age>34</age></person>\
    <person><id>2</id><name>Bob</name></person>\
    <sale><buyer>2</buyer><sum>10</sum></sale>\
    <sale><buyer>1</buyer><sum>20</sum></sale>\
    <sale><buyer>2</buyer><sum>30</sum></sale>\
</db>";

/// Join inputs where string values are not one plain text node.
const DOC_JOIN_EDGES: &str = "<db>\
    <person><id>1</id><id>3</id><name>Ann</name></person>\
    <person><id>2<!--c-->5</id><name>Bob</name></person>\
    <person><id><![CDATA[4]]>&amp;</id><name>Cy</name></person>\
    <person><id>6<x/>7</id><name>Di</name></person>\
    <person><id><k>8</k>9</id><name>Ed</name></person>\
    <person><id/><name>Flo</name></person>\
    <person><name>Gus</name></person>\
    <sale><buyer>3</buyer><buyer>25</buyer><sum>10</sum></sale>\
    <sale><buyer>4&amp;</buyer><sum>20</sum></sale>\
    <sale><buyer>6<!---->7</buyer><buyer>8<y/>9</buyer><sum>30</sum></sale>\
    <sale><buyer></buyer><sum>40</sum></sale>\
    <sale><buyer>0</buyer><sum>8</sum></sale>\
</db>";

#[test]
fn child_axis_outputs() {
    check_all("<r>{ for $b in /bib/book return $b/title }</r>", DOC_BIB);
    check_all("<r>{ for $b in /bib/book return $b }</r>", DOC_BIB);
    check_all("<r>{ for $x in /bib/* return $x/title }</r>", DOC_BIB);
}

#[test]
fn descendant_axis_outputs() {
    check_all("<r>{ for $b in //b return $b }</r>", DOC_NESTED);
    check_all(
        "<r>{ for $a in //a return for $b in $a//b return <hit/> }</r>",
        DOC_NESTED,
    );
    check_all("<r>{ for $t in /bib//title return $t/text() }</r>", DOC_BIB);
}

#[test]
fn conditions() {
    check_all(
        r#"<r>{ for $b in /bib/book return
            if (exists($b/price)) then $b/title else () }</r>"#,
        DOC_BIB,
    );
    check_all(
        r#"<r>{ for $b in /bib/book return
            if (not(exists($b/price))) then $b else () }</r>"#,
        DOC_BIB,
    );
    check_all(
        r#"<r>{ for $b in /bib/book return
            if ($b/price >= 9 and exists($b/author)) then $b/title else <cheap/> }</r>"#,
        DOC_BIB,
    );
    check_all(
        r#"<r>{ for $b in /bib/book return
            if ($b/title = "T2" or $b/price < 8) then $b/author else () }</r>"#,
        DOC_BIB,
    );
}

#[test]
fn joins() {
    check_all(
        r#"<r>{ for $p in /db/person return
            <row>{ ($p/name, for $s in /db/sale return
                if ($s/buyer = $p/id) then $s/sum else ()) }</row> }</r>"#,
        DOC_PEOPLE,
    );
    check_all(
        r#"<r>{ for $s in /db/sale return for $p in /db/person return
            if ($p/id = $s/buyer) then <pair>{ $p/name }</pair> else () }</r>"#,
        DOC_PEOPLE,
    );
    // Multi-valued sides on both left and right, text merged across a
    // comment, CDATA and an entity, text split by child elements (the
    // multi-span string values), and empty elements.
    let row_join = r#"<r>{ for $p in /db/person return
        <row>{ ($p/name, for $s in /db/sale return
            if ($s/buyer = $p/id) then $s/sum else ()) }</row> }</r>"#;
    assert_eq!(
        check_all(row_join, DOC_JOIN_EDGES),
        "<r><row><name>Ann</name><sum>10</sum></row>\
         <row><name>Bob</name><sum>10</sum></row>\
         <row><name>Cy</name><sum>20</sum></row>\
         <row><name>Di</name><sum>30</sum></row>\
         <row><name>Ed</name><sum>30</sum></row>\
         <row><name>Flo</name><sum>40</sum></row>\
         <row><name>Gus</name></row></r>"
    );
    check_all(
        r#"<r>{ for $s in /db/sale return for $p in /db/person return
            if ($p/id < $s/buyer) then <lt>{ ($p/name, $s/sum) }</lt> else () }</r>"#,
        DOC_JOIN_EDGES,
    );
    // A descendant-axis step on both sides of the comparison.
    check_all(
        r#"<r>{ for $p in /db/person return for $s in /db/sale return
            if ($s//buyer = $p//id) then <pair>{ ($p/name, $s/sum) }</pair> else () }</r>"#,
        DOC_JOIN_EDGES,
    );
    check_all(
        r#"<r>{ for $p in $root/db return for $s in /db/sale return
            if ($p//k = $s/sum) then $s else () }</r>"#,
        DOC_JOIN_EDGES,
    );
}

/// Q8, the paper's nested-loop join, evaluated one frame per `step`:
/// every suspension lands inside the join's cursors and comparisons, and
/// the output must still equal the in-memory oracle's byte for byte.
#[test]
fn xmark_q8_at_step_budget_one_matches_dom() {
    use gcx::core::StepOutcome;
    let doc = gcx::xmark::generate_string(gcx::xmark::XmarkConfig {
        seed: 7,
        scale: 0.05,
    });
    let mut tags = TagInterner::new();
    let compiled = gcx::compile_default(gcx::xmark::Q8, &mut tags).unwrap();
    let mut expected = Vec::new();
    gcx::run_dom(&compiled, &mut tags, doc.as_bytes(), &mut expected).unwrap();
    let mut out = Vec::new();
    let mut engine = gcx::GcxEngine::new(
        &compiled,
        &mut tags,
        doc.as_bytes(),
        &mut out,
        gcx::EngineOptions::default(),
    );
    let report = loop {
        match engine.step(1) {
            StepOutcome::Yielded => {}
            StepOutcome::Finished(r) => break r,
            other => panic!("unexpected step outcome: {other:?}"),
        }
    };
    drop(engine);
    assert_eq!(report.safety, Some(true));
    assert!(
        expected.windows(7).any(|w| w == b"<price>"),
        "the join matched nothing; the document is too small to test it"
    );
    assert_eq!(
        String::from_utf8(out).unwrap(),
        String::from_utf8(expected).unwrap()
    );
}

#[test]
fn constructors_and_sequences() {
    check_all(
        r#"<r>{ for $b in /bib/book return
            <entry><head>{ $b/title }</head><tail>{ ($b/author, $b/price) }</tail></entry> }</r>"#,
        DOC_BIB,
    );
    check_all("<r><empty/>{ () }<also/></r>", DOC_BIB);
}

#[test]
fn star_and_text_tests() {
    check_all(
        "<r>{ for $x in /bib/* return <k>{ $x/text() }</k> }</r>",
        DOC_BIB,
    );
    check_all("<r>{ for $t in //title return $t/text() }</r>", DOC_BIB);
}

#[test]
fn multiple_passes_over_stream() {
    // Three sequential loops over the same region force buffering across
    // scopes; results must still agree.
    check_all(
        r#"<r>{ (for $b in /bib/book return $b/title,
                for $b in /bib/book return $b/author,
                for $c in /bib/cd return $c/label) }</r>"#,
        DOC_BIB,
    );
}

#[test]
fn deeply_nested_loops() {
    check_all(
        r#"<r>{ for $a in /a/a return
                 for $x in $a/* return
                   for $b in $x/b return <leaf>{ $b/text() }</leaf> }</r>"#,
        DOC_NESTED,
    );
}

#[test]
fn empty_and_missing_paths() {
    check_all("<r>{ for $z in /bib/zzz return $z }</r>", DOC_BIB);
    check_all(
        "<r>{ for $b in /bib/book return for $z in $b/zzz return $z }</r>",
        DOC_BIB,
    );
    check_all("<r>{ for $b in //nothing return $b }</r>", "<a/>");
}

#[test]
fn whitespace_and_mixed_content() {
    let doc = "<a>\n  <b> x </b>\n  <b>y<c/>z</b>\n</a>";
    check_all("<r>{ for $b in /a/b return $b }</r>", doc);
    check_all("<r>{ for $b in /a/b return $b/text() }</r>", doc);
}

#[test]
fn numeric_vs_string_comparisons() {
    let doc = "<l><v>9</v><v>10</v><v>x10</v><v>02</v></l>";
    check_all(
        r#"<r>{ for $v in /l/v return if ($v/text() < 10) then $v else () }</r>"#,
        doc,
    );
    check_all(
        r#"<r>{ for $v in /l/v return if ($v/text() = "02") then $v else () }</r>"#,
        doc,
    );
}

/// Only XPath 1.0 numerals compare numerically: Rust's float grammar
/// (`NaN`, `inf`, exponents, a leading `+`) compares as strings.
#[test]
fn only_xpath_numerals_compare_numerically() {
    let doc = "<l><v>NaN</v><v>inf</v><v>1e3</v><v>+5</v><v>5.0</v>\
               <p><a>NaN</a><b>NaN</b></p></l>";
    assert_eq!(
        check_all(
            r#"<r>{ for $v in /l/v return
                if ($v/text() = "NaN" or $v/text() = "Infinity" or
                    $v/text() = "1000" or $v/text() = "5") then $v else () }</r>"#,
            doc,
        ),
        "<r><v>NaN</v><v>5.0</v></r>"
    );
    assert_eq!(
        check_all(
            "<r>{ for $p in /l/p return if ($p/a != $p/b) then <ne/> else <eq/> }</r>",
            doc,
        ),
        "<r><eq></eq></r>"
    );
}

#[test]
fn root_variable_queries() {
    check_all("<r>{ for $b in $root/bib return $b/cd }</r>", DOC_BIB);
    // Descendants straight from the root.
    check_all("<r>{ for $t in //title return <t/> }</r>", DOC_BIB);
}

#[test]
fn let_inlining() {
    // Path-valued lets are removed by inlining (paper §3: "in many
    // practical queries, let-expressions can be removed").
    check_all(
        "<r>{ let $books := /bib/book return for $b in $books/title return $b }</r>",
        DOC_BIB,
    );
    check_all(
        r#"<r>{ for $b in /bib/book return
            let $p := $b/price return
            if (exists($b/author)) then $p else () }</r>"#,
        DOC_BIB,
    );
}

#[test]
fn recursive_document_shapes() {
    // //a//b over self-similar nesting: multiplicities stress role
    // accounting (paper Example 1/3).
    let doc = "<a><a><a><b><b/></b></a></a><b/></a>";
    check_all(
        "<r>{ for $a in //a return for $b in $a//b return <x/> }</r>",
        doc,
    );
    check_all("<r>{ for $b in //a return $b }</r>", doc);
}
