//! The docs/ book stays coherent: every chapter the summary lists
//! exists, every chapter on disk is listed, relative links resolve, cited
//! file paths exist (in the book and in source comments), and the README
//! points into the book. This is the CI `docs` job's link-check (there is
//! no mdBook binary in the offline environment).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn docs_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/docs"))
}

/// Every `](target)` markdown link in `text`.
fn links(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("](") {
        rest = &rest[pos + 2..];
        if let Some(end) = rest.find(')') {
            out.push(rest[..end].to_string());
            rest = &rest[end..];
        }
    }
    out
}

/// Resolves a relative link (optionally with a `#anchor`) against docs/,
/// returning the target path if it is a local file link.
fn local_target(link: &str) -> Option<String> {
    if link.starts_with("http://") || link.starts_with("https://") || link.starts_with('#') {
        return None;
    }
    let path = link.split('#').next().unwrap_or(link);
    if path.is_empty() {
        return None;
    }
    Some(path.to_string())
}

#[test]
fn summary_lists_exactly_the_chapters_on_disk() {
    let summary = std::fs::read_to_string(docs_dir().join("SUMMARY.md")).expect("docs/SUMMARY.md");
    let listed: BTreeSet<String> = links(&summary)
        .iter()
        .filter_map(|l| local_target(l))
        .collect();
    // Each listed chapter exists...
    for chapter in &listed {
        assert!(
            docs_dir().join(chapter).is_file(),
            "SUMMARY.md lists `{chapter}` but docs/{chapter} does not exist"
        );
    }
    // ...and each chapter on disk is listed (SUMMARY.md itself aside).
    for entry in std::fs::read_dir(docs_dir()).expect("docs/ exists") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().to_string();
        if !name.ends_with(".md") || name == "SUMMARY.md" {
            continue;
        }
        assert!(
            listed.contains(&name),
            "docs/{name} exists but SUMMARY.md does not list it"
        );
    }
    // The book is a real book, not a stub.
    let chapters = listed.iter().filter(|c| *c != "README.md").count();
    assert!(
        chapters >= 6,
        "expected at least 6 chapters in docs/, found {chapters}"
    );
}

#[test]
fn every_relative_link_in_the_book_resolves() {
    for entry in std::fs::read_dir(docs_dir()).expect("docs/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "md") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("chapter is readable");
        for link in links(&text) {
            let Some(target) = local_target(&link) else {
                continue;
            };
            assert!(
                docs_dir().join(&target).exists(),
                "{}: link `{link}` does not resolve",
                path.display()
            );
        }
    }
}

/// Every back-ticked inline code span of `text`, outside fenced blocks.
fn code_spans(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            // Odd pieces of a split on '`' are the spans.
            out.extend(line.split('`').skip(1).step_by(2));
        }
    }
    out
}

/// Where a code span that names a file must be found, if it names one: a
/// `.json`, `.rs` or `.md` file name with no spaces or placeholders. With
/// a `/` it is a repo-relative path. A bare `.json`/`.md` name is a file at
/// the repository root or a sibling chapter. A bare `.rs` name is a module
/// of the crate under discussion, which this check cannot place: `None`.
fn cited_file(span: &str) -> Option<Vec<PathBuf>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ext = [".json", ".rs", ".md"]
        .into_iter()
        .find(|e| span.ends_with(e))?;
    let plain = span
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || "/._-".contains(c));
    if !plain || span.starts_with(['/', '.']) {
        return None;
    }
    if span.contains('/') {
        Some(vec![root.join(span)])
    } else if ext == ".rs" {
        None
    } else {
        Some(vec![root.join(span), docs_dir().join(span)])
    }
}

#[test]
fn code_spans_and_cited_files_are_recognised() {
    let text = "see `a/b.rs` and `c.json`\n```\n`fenced/x.rs`\n```\n`docs/<x>.md` `.json` `e.rs`";
    let spans = code_spans(text);
    assert_eq!(spans, ["a/b.rs", "c.json", "docs/<x>.md", ".json", "e.rs"]);
    let cited: Vec<&str> = spans
        .into_iter()
        .filter(|s| cited_file(s).is_some())
        .collect();
    assert_eq!(cited, ["a/b.rs", "c.json"]);
}

#[test]
fn every_file_the_book_cites_exists() {
    // A citation like `tests/BENCH_PR3.json` for a file that lives at the
    // repository root used to pass the link check: it is not a link.
    let mut cited = 0;
    for entry in std::fs::read_dir(docs_dir()).expect("docs/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "md") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("chapter is readable");
        for span in code_spans(&text) {
            let Some(candidates) = cited_file(span) else {
                continue;
            };
            cited += 1;
            assert!(
                candidates.iter().any(|c| c.is_file()),
                "{}: cites `{span}`, which does not exist in the repository",
                path.display()
            );
        }
    }
    assert!(cited >= 5, "the book cites files; found only {cited}");
}

/// Every `*.md` name in a `//` comment of `line`: a run of file-name
/// characters ending in `.md` and not followed by another name character.
fn cited_markdown(line: &str) -> Vec<&str> {
    let Some((_, comment)) = line.split_once("//") else {
        return Vec::new();
    };
    let name_char = |c: char| c.is_ascii_alphanumeric() || "/._-".contains(c);
    let mut out = Vec::new();
    for (at, _) in comment.match_indices(".md") {
        let end = at + ".md".len();
        if comment[end..].starts_with(name_char) {
            continue;
        }
        let start = comment[..at]
            .rfind(|c: char| !name_char(c))
            .map_or(0, |i| i + 1);
        if start < at {
            out.push(&comment[start..end]);
        }
    }
    out
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn markdown_names_in_comments_are_recognised() {
    let line = "/// see docs/cli.md, (DESIGN.md) and `x.mdx`.";
    assert_eq!(cited_markdown(line), ["docs/cli.md", "DESIGN.md"]);
    let code = "let p = \"a.md\"; // b.md";
    assert_eq!(cited_markdown(code), ["b.md"]);
}

#[test]
fn every_markdown_file_a_source_comment_cites_exists() {
    // A comment that sends its reader to a chapter nobody wrote explains
    // nothing; it is not a link, so the book's link check misses it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut cited = 0;
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source is readable");
        for (n, line) in text.lines().enumerate() {
            for name in cited_markdown(line) {
                cited += 1;
                let found = if name.contains('/') {
                    root.join(name).is_file()
                } else {
                    root.join(name).is_file() || docs_dir().join(name).is_file()
                };
                assert!(
                    found,
                    "{}:{}: a comment cites `{name}`, which does not exist",
                    file.display(),
                    n + 1
                );
            }
        }
    }
    assert!(cited > 0, "no source comment cites a chapter");
}

#[test]
fn readme_links_into_the_book() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");
    let doc_links: Vec<String> = links(&readme)
        .into_iter()
        .filter(|l| l.starts_with("docs/"))
        .collect();
    assert!(
        doc_links.len() >= 3,
        "README.md should link into docs/ (found {doc_links:?})"
    );
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR")));
    for link in doc_links {
        let target = link.split('#').next().unwrap_or(&link);
        assert!(
            root.join(target).exists(),
            "README.md link `{link}` does not resolve"
        );
    }
}
