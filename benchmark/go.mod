module github.com/social-streams/ksir/benchmark

go 1.22

require github.com/social-streams/ksir v0.0.0

replace github.com/social-streams/ksir => ../
