#include "serve/cache.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <vector>

#include "sim/check.hpp"
#include "sim/snapshot.hpp"

namespace dta::serve {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[8] = {'D', 'T', 'A', 'R', 'E', 'S', '1', '\0'};

std::string key_hex(std::uint64_t key) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        return false;
    }
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    bool ok = size >= 0;
    if (ok) {
        out.resize(static_cast<std::size_t>(size));
        ok = out.empty() ||
             std::fread(out.data(), 1, out.size(), f) == out.size();
    }
    std::fclose(f);
    return ok;
}

}  // namespace

ResultCache::ResultCache(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {
    std::error_code ec;
    fs::create_directories(dir_, ec);
    DTA_SIM_REQUIRE(!ec && fs::is_directory(dir_, ec),
                    "cannot create cache directory '" + dir_ + "'");
    // Seed the index (and the LRU order) from what is already on disk.
    // Entries are validated lazily at lookup; here only the name and size
    // need to parse.
    struct Seen {
        std::uint64_t key;
        std::uint64_t bytes;
        fs::file_time_type mtime;
    };
    std::vector<Seen> seen;
    for (const auto& de : fs::directory_iterator(dir_, ec)) {
        const std::string name = de.path().filename().string();
        if (name.size() != 16 + 7 || name.substr(16) != ".dtares") {
            continue;
        }
        // `end` points into `hex`, so the digits must outlive the check.
        const std::string hex = name.substr(0, 16);
        char* end = nullptr;
        const std::uint64_t key = std::strtoull(hex.c_str(), &end, 16);
        if (end == nullptr || *end != '\0') {
            continue;
        }
        std::error_code fe;
        const auto sz = de.file_size(fe);
        const auto mt = de.last_write_time(fe);
        if (!fe) {
            seen.push_back({key, sz, mt});
        }
    }
    std::sort(seen.begin(), seen.end(),
              [](const Seen& a, const Seen& b) { return a.mtime < b.mtime; });
    for (const Seen& s : seen) {
        entries_[s.key] = Entry{s.bytes, next_tick_++};
        total_bytes_ += s.bytes;
    }
}

std::string ResultCache::entry_path(std::uint64_t key) const {
    return dir_ + "/" + key_hex(key) + ".dtares";
}

void ResultCache::touch(std::uint64_t key) {
    entries_[key].tick = next_tick_++;
}

void ResultCache::drop(std::uint64_t key, bool corrupt) {
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
        total_bytes_ -= std::min(total_bytes_, it->second.bytes);
        entries_.erase(it);
    }
    std::remove(entry_path(key).c_str());
    if (corrupt) {
        ++stats_.corrupt;
    }
}

std::optional<std::string> ResultCache::lookup(std::uint64_t key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++stats_.misses;
        return std::nullopt;
    }
    std::vector<std::uint8_t> file;
    if (!read_file(entry_path(key), file)) {
        drop(key, /*corrupt=*/true);
        ++stats_.misses;
        return std::nullopt;
    }
    // Validate the whole envelope before trusting one byte of payload.
    const std::size_t header = sizeof kMagic + 4 + 8 + 4 + 8;
    bool ok = file.size() >= header &&
              std::equal(kMagic, kMagic + sizeof kMagic, file.begin());
    if (ok) {
        sim::StateSource s(file.data() + sizeof kMagic,
                           file.size() - sizeof kMagic);
        const std::uint32_t version = s.u32();
        const std::uint64_t stored_key = s.u64();
        const std::uint32_t crc = s.u32();
        const std::uint64_t len = s.u64();
        ok = version == kCacheFormatVersion && stored_key == key &&
             len == file.size() - header;
        if (ok) {
            const std::uint8_t* payload = file.data() + header;
            ok = sim::crc32(payload, static_cast<std::size_t>(len)) == crc;
            if (ok) {
                ++stats_.hits;
                touch(key);
                return std::string(reinterpret_cast<const char*>(payload),
                                   static_cast<std::size_t>(len));
            }
        }
    }
    drop(key, /*corrupt=*/true);
    ++stats_.misses;
    return std::nullopt;
}

bool ResultCache::store(std::uint64_t key, std::string_view payload) {
    sim::StateSink out;
    out.blob(kMagic, sizeof kMagic);
    out.u32(kCacheFormatVersion);
    out.u64(key);
    out.u32(sim::crc32(payload.data(), payload.size()));
    out.u64(payload.size());
    out.blob(payload.data(), payload.size());

    const std::string path = entry_path(key);
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        return false;
    }
    const bool wrote =
        std::fwrite(out.data().data(), 1, out.size(), f) == out.size();
    const bool ok = wrote && std::fclose(f) == 0;
    if (!wrote) {
        std::fclose(f);
    }
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
        total_bytes_ -= std::min(total_bytes_, it->second.bytes);
    }
    entries_[key] = Entry{payload.size(), next_tick_++};
    total_bytes_ += payload.size();
    ++stats_.stores;
    evict_over_budget();
    return true;
}

void ResultCache::evict_over_budget() {
    if (max_bytes_ == 0) {
        return;
    }
    while (total_bytes_ > max_bytes_ && entries_.size() > 1) {
        auto oldest = entries_.begin();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->second.tick < oldest->second.tick) {
                oldest = it;
            }
        }
        const std::uint64_t key = oldest->first;
        drop(key, /*corrupt=*/false);
        ++stats_.evictions;
    }
}

}  // namespace dta::serve
