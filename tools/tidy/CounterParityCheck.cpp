//===--- CounterParityCheck.cpp - evm-counter-parity ----------------------===//

#include "CounterParityCheck.h"

#include "EvmTidyUtils.h"
#include "clang/AST/ASTContext.h"
#include "clang/AST/Decl.h"
#include "clang/AST/Expr.h"
#include "clang/AST/ExprCXX.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "llvm/ADT/Hashing.h"
#include "llvm/Support/FileSystem.h"
#include "llvm/Support/MemoryBuffer.h"
#include "llvm/Support/Path.h"
#include "llvm/Support/raw_ostream.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace evm {

namespace {

constexpr char kDefaultSerialFiles[] = "src/core/match_stages.cpp";
constexpr char kDefaultMapReduceFiles[] =
    "src/core/matcher.cpp;src/core/parallel_split.cpp";
constexpr char kDefaultStreamDirs[] = "src/stream";
constexpr char kDefaultEngineDirs[] = "src/mapreduce";
constexpr char kDefaultAuditedPrefixes[] =
    "mr.;match.;stream.;stage.;gallery.";

std::string jsonEscape(llvm::StringRef S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  return Out;
}

} // namespace

CounterParityCheck::CounterParityCheck(StringRef Name,
                                       ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context),
      ManifestFile(Options.get("ManifestFile", "")),
      CountersDir(Options.get("CountersDir", "")),
      RawSerialFiles(Options.get("SerialFiles", kDefaultSerialFiles)),
      RawMapReduceFiles(
          Options.get("MapReduceFiles", kDefaultMapReduceFiles)),
      RawStreamDirs(Options.get("StreamDirs", kDefaultStreamDirs)),
      RawEngineDirs(Options.get("EngineDirs", kDefaultEngineDirs)),
      RawAuditedPrefixes(
          Options.get("AuditedPrefixes", kDefaultAuditedPrefixes)),
      SerialFiles(splitOption(RawSerialFiles)),
      MapReduceFiles(splitOption(RawMapReduceFiles)),
      StreamDirs(splitOption(RawStreamDirs)),
      EngineDirs(splitOption(RawEngineDirs)),
      AuditedPrefixes(splitOption(RawAuditedPrefixes)) {}

void CounterParityCheck::storeOptions(ClangTidyOptions::OptionMap &Opts) {
  Options.store(Opts, "ManifestFile", ManifestFile);
  Options.store(Opts, "CountersDir", CountersDir);
  Options.store(Opts, "SerialFiles", RawSerialFiles);
  Options.store(Opts, "MapReduceFiles", RawMapReduceFiles);
  Options.store(Opts, "StreamDirs", RawStreamDirs);
  Options.store(Opts, "EngineDirs", RawEngineDirs);
  Options.store(Opts, "AuditedPrefixes", RawAuditedPrefixes);
}

void CounterParityCheck::loadManifest() {
  if (ManifestLoaded)
    return;
  ManifestLoaded = true;
  if (ManifestFile.empty())
    return;
  auto BufOrErr = llvm::MemoryBuffer::getFile(ManifestFile);
  if (!BufOrErr) {
    configurationDiag("evm-counter-parity: cannot read manifest '%0'; "
                      "name/role auditing disabled")
        << ManifestFile;
    return;
  }
  llvm::SmallVector<llvm::StringRef, 128> Lines;
  (*BufOrErr)->getBuffer().split(Lines, '\n');
  for (llvm::StringRef Line : Lines) {
    Line = Line.take_until([](char C) { return C == '#'; }).trim();
    if (Line.empty())
      continue;
    // `<name> <role>[,<role>...]`
    auto Split = Line.split(' ');
    llvm::StringRef Name = Split.first.trim();
    llvm::StringRef Roles = Split.second.trim();
    if (Name.empty())
      continue;
    std::set<std::string> &Allowed = Manifest[Name.str()];
    llvm::SmallVector<llvm::StringRef, 4> Parts;
    Roles.split(Parts, ',', /*MaxSplit=*/-1, /*KeepEmpty=*/false);
    for (llvm::StringRef R : Parts)
      Allowed.insert(R.trim().str());
  }
}

std::string CounterParityCheck::roleOf(llvm::StringRef Path) const {
  if (pathIsAnyFile(Path, SerialFiles))
    return "serial";
  if (pathIsAnyFile(Path, MapReduceFiles))
    return "mapreduce";
  if (pathInAnyDir(Path, StreamDirs))
    return "stream";
  if (pathInAnyDir(Path, EngineDirs))
    return "engine";
  return "other";
}

bool CounterParityCheck::resolveName(const Expr *Arg, ASTContext &Ctx,
                                     std::string &Out) const {
  if (Arg == nullptr)
    return false;
  const Expr *E = Arg->IgnoreParenImpCasts();

  if (const auto *Lit = dyn_cast<StringLiteral>(E)) {
    if (!Lit->isOrdinary() && !Lit->isUTF8())
      return false;
    Out = Lit->getString().str();
    return true;
  }
  if (const auto *Cleanups = dyn_cast<ExprWithCleanups>(E))
    return resolveName(Cleanups->getSubExpr(), Ctx, Out);
  if (const auto *Bind = dyn_cast<CXXBindTemporaryExpr>(E))
    return resolveName(Bind->getSubExpr(), Ctx, Out);
  if (const auto *Mat = dyn_cast<MaterializeTemporaryExpr>(E))
    return resolveName(Mat->getSubExpr(), Ctx, Out);
  // std::string / std::string_view built from a narrower constant.
  if (const auto *Construct = dyn_cast<CXXConstructExpr>(E)) {
    if (Construct->getNumArgs() >= 1)
      return resolveName(Construct->getArg(0), Ctx, Out);
    return false;
  }
  // kCtr* / kMr* style constants: a DeclRef whose initializer is constant.
  if (const auto *Ref = dyn_cast<DeclRefExpr>(E)) {
    if (const auto *Var = dyn_cast<VarDecl>(Ref->getDecl())) {
      if (const Expr *Init = Var->getAnyInitializer())
        return resolveName(Init, Ctx, Out);
    }
    return false;
  }
  // Array-to-pointer decay of a constant char array reaches here as the
  // initializer itself (a StringLiteral) in the VarDecl path above; any
  // other shape (concatenation, ternary, runtime data) is non-constant.
  return false;
}

void CounterParityCheck::registerMatchers(ast_matchers::MatchFinder *Finder) {
  Finder->addMatcher(
      cxxMemberCallExpr(
          callee(cxxMethodDecl(
              hasAnyName("counter", "gauge", "latency"),
              ofClass(hasName("::evm::obs::MetricsRegistry")))))
          .bind("registry-call"),
      this);
  Finder->addMatcher(
      callExpr(callee(functionDecl(hasAnyName("::evm::obs::GetCounter",
                                              "::evm::obs::GetGauge",
                                              "::evm::obs::GetLatency"))))
          .bind("helper-call"),
      this);
}

void CounterParityCheck::check(
    const ast_matchers::MatchFinder::MatchResult &Result) {
  const SourceManager &SM = *Result.SourceManager;
  loadManifest();

  const Expr *NameArg = nullptr;
  SourceLocation Loc;
  if (const auto *Member =
          Result.Nodes.getNodeAs<CXXMemberCallExpr>("registry-call")) {
    if (Member->getNumArgs() < 1)
      return;
    NameArg = Member->getArg(0);
    Loc = Member->getBeginLoc();
  } else if (const auto *Helper =
                 Result.Nodes.getNodeAs<CallExpr>("helper-call")) {
    if (Helper->getNumArgs() < 2)
      return;
    NameArg = Helper->getArg(1);
    Loc = Helper->getBeginLoc();
  } else {
    return;
  }

  const std::string Path = fileOf(SM, Loc);
  // The registry implementation and its forwarding helpers pass parameters
  // through, not literals; auditing starts at their callers.
  if (!Path.empty() && Path.find("src/obs/") != std::string::npos)
    return;
  if (Path.find("/tests/") != std::string::npos ||
      Path.find("/bench/") != std::string::npos)
    return;

  std::string Name;
  if (!resolveName(NameArg, *Result.Context, Name)) {
    if (hasSuppressionComment(SM, Loc, "det-ok:"))
      return;
    diag(Loc, "metric name is not a compile-time constant; dynamic names "
              "defeat the static counter-parity audit — name the metric in "
              "a header constant and list it in tools/tidy/counters.txt");
    return;
  }

  bool Audited = false;
  for (const std::string &Prefix : AuditedPrefixes) {
    if (Name.compare(0, Prefix.size(), Prefix) == 0) {
      Audited = true;
      break;
    }
  }
  if (!Audited)
    return;

  const std::string Role = roleOf(Path);
  Uses.push_back(Use{Name, Role, Path,
                     SM.getSpellingLineNumber(SM.getSpellingLoc(Loc))});

  if (Manifest.empty())
    return; // No manifest configured or unreadable: collection only.

  auto It = Manifest.find(Name);
  if (It == Manifest.end()) {
    if (hasSuppressionComment(SM, Loc, "det-ok:"))
      return;
    diag(Loc, "metric '%0' is not declared in tools/tidy/counters.txt; add "
              "it with the set of paths (serial, mapreduce, stream, engine) "
              "expected to touch it")
        << Name;
    return;
  }
  const std::set<std::string> &Allowed = It->second;
  if (Allowed.count("any") != 0 || Allowed.count(Role) != 0)
    return;
  if (hasSuppressionComment(SM, Loc, "det-ok:"))
    return;
  std::string AllowedJoined;
  for (const std::string &R : Allowed) {
    if (!AllowedJoined.empty())
      AllowedJoined += ", ";
    AllowedJoined += R;
  }
  diag(Loc, "metric '%0' is declared for {%1} but referenced from the %2 "
            "path; a counter moving in one execution mode but not its twin "
            "breaks serial/MapReduce stats parity — update the code or the "
            "manifest roles")
      << Name << AllowedJoined << Role;
}

void CounterParityCheck::onEndOfTranslationUnit() {
  if (CountersDir.empty() || Uses.empty()) {
    Uses.clear();
    return;
  }
  if (MainFilePath.empty())
    MainFilePath = Uses.front().File;

  llvm::sys::fs::create_directories(CountersDir);
  llvm::SmallString<256> OutPath(CountersDir);
  const llvm::StringRef Stem = llvm::sys::path::stem(MainFilePath);
  llvm::sys::path::append(
      OutPath, ("counters-" + Stem + "-" +
                llvm::Twine::utohexstr(llvm::hash_value(
                    llvm::StringRef(MainFilePath))) +
                ".json")
                   .str());

  std::error_code EC;
  llvm::raw_fd_ostream OS(OutPath, EC, llvm::sys::fs::OF_Text);
  if (EC) {
    Uses.clear();
    return;
  }
  OS << "{\n  \"tu\": \"" << jsonEscape(MainFilePath) << "\",\n";
  OS << "  \"uses\": [\n";
  for (std::size_t I = 0; I < Uses.size(); ++I) {
    const Use &U = Uses[I];
    OS << "    {\"name\": \"" << jsonEscape(U.Name) << "\", \"role\": \""
       << jsonEscape(U.Role) << "\", \"file\": \"" << jsonEscape(U.File)
       << "\", \"line\": " << U.Line << "}";
    OS << (I + 1 == Uses.size() ? "\n" : ",\n");
  }
  OS << "  ]\n}\n";
  Uses.clear();
  MainFilePath.clear();
}

} // namespace evm
} // namespace tidy
} // namespace clang
